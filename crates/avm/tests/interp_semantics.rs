//! Interpreter semantics pinned to expected values: virtual dispatch at
//! a shared call site resolves each receiver's own override on every
//! entry, and the fuel meter charges exactly one unit per retired
//! instruction.

use dydroid_avm::interp::Vm;
use dydroid_avm::{Device, DeviceConfig, Process, Value};
use dydroid_dex::builder::DexBuilder;
use dydroid_dex::{AccessFlags, BinOp, CmpKind, DexFile, Manifest, MethodRef};
use proptest::prelude::*;

/// Builds the polymorphic probe program: `Sub0..Sub2` override `v()I`
/// (returning `10 * i + 1`), and a single shared call site
/// (`Main.call`) dispatches on whatever receiver the script in
/// `choices` constructs. `Main.f` returns the sum.
fn polymorphic_program(choices: &[u8]) -> DexFile {
    let mut b = DexBuilder::new();
    b.class("com.p.Base", "java.lang.Object");
    for i in 0..3u8 {
        let c = b.class(format!("com.p.Sub{i}"), "com.p.Base");
        let m = c.method("v", "()I", AccessFlags::PUBLIC);
        m.const_int(1, i64::from(i) * 10 + 1);
        m.ret(1);
    }
    let c = b.class("com.p.Main", "java.lang.Object");
    {
        // The single shared call site every receiver flows through.
        let call = c.method(
            "call",
            "(Ljava/lang/Object;)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
        );
        call.registers(2);
        call.invoke_virtual(MethodRef::new("com.p.Base", "v", "()I"), vec![0]);
        call.move_result(1);
        call.ret(1);
    }
    let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(6);
    m.const_int(0, 0); // acc
    for &choice in choices {
        m.new_instance(1, format!("com.p.Sub{}", choice % 3));
        m.invoke_static(
            MethodRef::new("com.p.Main", "call", "(Ljava/lang/Object;)I"),
            vec![1],
        );
        m.move_result(2);
        m.binop(BinOp::Add, 0, 0, 2);
    }
    m.ret(0);
    b.build()
}

/// Runs `Main.f` twice on one process: the second entry sees the heap,
/// interner and register pool the first one left behind.
fn run_twice(classes: DexFile) -> (Value, Value) {
    let mut device = Device::new(DeviceConfig::default());
    let manifest = Manifest::new("com.p");
    let mut proc = Process::new("com.p".to_string(), classes, &manifest);
    let first = Vm::new(&mut device, &mut proc)
        .call_entry("com.p.Main", "f")
        .expect("first run");
    let second = Vm::new(&mut device, &mut proc)
        .call_entry("com.p.Main", "f")
        .expect("second run");
    (first, second)
}

proptest! {
    /// For any receiver script, both entries compute the sum of the
    /// receivers' own overrides.
    #[test]
    fn polymorphic_receivers_resolve_at_shared_site(
        choices in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let expected: i64 = choices
            .iter()
            .map(|&c| i64::from(c % 3) * 10 + 1)
            .sum();
        let (first, second) = run_twice(polymorphic_program(&choices));
        prop_assert_eq!(&first, &Value::Int(expected));
        prop_assert_eq!(&second, &first, "a repeated entry changed the result");
    }
}

/// The same receiver class eight times through the shared site.
#[test]
fn repeated_receiver_resolves_on_every_entry() {
    let (first, second) = run_twice(polymorphic_program(&[0; 8]));
    assert_eq!(first, Value::Int(8));
    assert_eq!(second, first);
}

/// A countdown loop retires exactly the instructions it
/// executes: two constants, three per iteration (branch, subtract,
/// goto), then the final branch and the return.
#[test]
fn fuel_accounting_counts_every_instruction() {
    const ITERATIONS: u64 = 40_000;
    let mut b = DexBuilder::new();
    let c = b.class("com.p.Main", "java.lang.Object");
    let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(4);
    m.const_int(0, ITERATIONS as i64);
    m.const_int(1, 1);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 0, done);
    m.binop(BinOp::Sub, 0, 0, 1);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    let mut device = Device::new(DeviceConfig::default());
    let manifest = Manifest::new("com.p");
    let mut proc = Process::new("com.p".to_string(), b.build(), &manifest);
    assert!(proc.run_entry(&mut device, "com.p.Main", "f"));
    assert_eq!(device.instructions_retired(), 2 + 3 * ITERATIONS + 2);
    assert_eq!(proc.instructions_retired, device.instructions_retired());
}
