//! The bytecode interpreter.
//!
//! Executes the [`dydroid_dex`] ISA with a real call stack so that the DCL
//! logger can attribute loads to their call-site class via the Java stack
//! trace, exactly as DyDroid does (Figure 2 of the paper).
//!
//! # Calling convention
//!
//! Parameters are passed in the low registers: for instance methods
//! `v0 = this, v1.. = params`; for static methods `v0.. = params`. The
//! frame size is the method's declared register count.
//!
//! # One execution path
//!
//! Each call resolves its target by name through the process's class
//! spaces and runs the method's own instruction stream. Operands stay
//! as the decoded strings; names are interned only where they enter the
//! heap or the call stack, and register files are pooled per process.
//! Apps retire a few dozen instructions per process, too few for a
//! per-process resolution cache to warm up.

use dydroid_dex::{AccessFlags, Instruction, InvokeKind, Method};

use crate::device::Device;
use crate::error::Exec;
use crate::heap::{ObjId, Value};
use crate::intrinsics;
use crate::process::Process;
use crate::sym::Sym;

/// Maximum instructions executed per entry point (infinite-loop guard —
/// the Monkey must survive hostile apps).
pub const DEFAULT_FUEL: u64 = 200_000;
/// Maximum interpreter call depth.
pub const MAX_DEPTH: usize = 64;

/// An executing virtual machine, borrowing the device and process.
pub struct Vm<'a> {
    /// The device (filesystem, network, hooks, log).
    pub device: &'a mut Device,
    /// The running process (heap, class spaces, statics).
    pub proc: &'a mut Process,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// App-level call stack, outermost first: interned `(class, method)`
    /// frames. Strings are materialized only at error/event boundaries
    /// ([`Vm::caller_class`], [`Vm::stack_trace`]).
    pub call_stack: Vec<(Sym, Sym)>,
}

impl<'a> Vm<'a> {
    /// Creates a VM with the default fuel budget.
    pub fn new(device: &'a mut Device, proc: &'a mut Process) -> Self {
        Vm {
            device,
            proc,
            fuel: DEFAULT_FUEL,
            call_stack: Vec::new(),
        }
    }

    /// The package of the running process.
    pub fn package(&self) -> &str {
        &self.proc.package
    }

    /// The class of the innermost app frame (the DCL call site).
    /// Borrowed — hook sites that only inspect the class pay no
    /// allocation; those that store it convert exactly once.
    pub fn caller_class(&self) -> &str {
        self.call_stack
            .last()
            .map(|(c, _)| self.proc.interner.resolve(*c))
            .unwrap_or("<none>")
    }

    /// The app stack trace, innermost first, as `class->method` strings.
    pub fn stack_trace(&self) -> Vec<String> {
        self.call_stack
            .iter()
            .rev()
            .map(|(c, m)| {
                format!(
                    "{}->{}",
                    self.proc.interner.resolve(*c),
                    self.proc.interner.resolve(*m)
                )
            })
            .collect()
    }

    /// Runs a public entry point: allocates a receiver (running `<init>`
    /// when present), then invokes `method`.
    ///
    /// # Errors
    ///
    /// Returns the [`Exec`] outcome of any in-app failure.
    pub fn call_entry(&mut self, class: &str, method: &str) -> Result<Value, Exec> {
        let fuel_at_entry = self.fuel;
        let result = self.call_entry_inner(class, method);
        // Charge the device-level instruction counter on the way out —
        // whatever the outcome — so the telemetry layer sees retired
        // instructions even though processes are dropped inside the
        // Monkey before the pipeline can read them.
        self.device
            .charge_instructions(fuel_at_entry.saturating_sub(self.fuel));
        result
    }

    fn call_entry_inner(&mut self, class: &str, method: &str) -> Result<Value, Exec> {
        let def = self
            .proc
            .find_class(class)
            .ok_or_else(|| Exec::Throw(format!("ClassNotFoundException: {class}")))?;
        let is_static = def
            .method_by_name(method)
            .map(|m| m.flags.contains(AccessFlags::STATIC))
            .unwrap_or(false);
        if is_static {
            return self.invoke_resolved(class, method, Vec::new());
        }
        let cls = self.proc.interner.intern(class);
        let this = self.proc.heap.alloc(cls);
        if self.proc.resolve_method(class, "<init>").is_some() {
            self.invoke_resolved(class, "<init>", vec![Value::Obj(this)])?;
        }
        self.invoke_resolved(class, method, vec![Value::Obj(this)])
    }

    /// Invokes `class.method(args)` with full dispatch: intrinsics for
    /// framework classes, app class spaces otherwise, JNI for `native`
    /// methods. `args` includes the receiver for instance calls.
    ///
    /// # Errors
    ///
    /// Returns [`Exec`] on in-app failure.
    pub fn invoke_resolved(
        &mut self,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, Exec> {
        if self.call_stack.len() >= MAX_DEPTH {
            return Err(Exec::StackOverflow);
        }
        // Framework classes dispatch to intrinsics (boot class loader wins,
        // as on real Android).
        if is_framework_class(class) {
            let mref = dydroid_dex::MethodRef {
                class: class.to_string(),
                name: method.to_string(),
                sig: dydroid_dex::MethodSig::void(),
            };
            return intrinsics::dispatch(self, &mref, &args);
        }
        // Virtual dispatch: start at the receiver's runtime class if it
        // resolves the method, else at the static class.
        let start_class = args
            .first()
            .and_then(|v| v.as_obj())
            .and_then(|id| self.proc.heap.get(id))
            .map(|o| o.class)
            .map(|s| self.proc.interner.resolve(s).to_string())
            .filter(|c| self.proc.resolve_method(c, method).is_some())
            .unwrap_or_else(|| class.to_string());
        let (_def_class, m) = self
            .proc
            .resolve_method(&start_class, method)
            .ok_or_else(|| {
                if self.proc.find_class(&start_class).is_none() {
                    Exec::Throw(format!("ClassNotFoundException: {start_class}"))
                } else {
                    Exec::Throw(format!("NoSuchMethodError: {start_class}.{method}"))
                }
            })?;

        if m.flags.contains(AccessFlags::NATIVE) {
            return self.invoke_native(&start_class, &m, args);
        }

        let frame = (
            self.proc.interner.intern(&start_class),
            self.proc.interner.intern(method),
        );
        self.call_stack.push(frame);
        let result = self.execute(&m, args);
        self.call_stack.pop();
        result
    }

    /// Dispatches a `native` app method through the loaded libraries:
    /// the symbol is the bare method name; libraries are searched in
    /// reverse load order (most recent wins).
    fn invoke_native(
        &mut self,
        class: &str,
        method: &Method,
        _args: Vec<Value>,
    ) -> Result<Value, Exec> {
        let lib_idx = self.proc.native_libs.iter().rposition(|l| {
            l.function(&method.name)
                .map(|f| f.exported)
                .unwrap_or(false)
        });
        match lib_idx {
            Some(idx) => {
                let frame = (
                    self.proc.interner.intern(class),
                    self.proc.interner.intern(&method.name),
                );
                self.call_stack.push(frame);
                let result = crate::nativerun::run_native(self, idx, &method.name);
                self.call_stack.pop();
                result?;
                Ok(default_return(method))
            }
            None => Err(Exec::Throw(format!(
                "UnsatisfiedLinkError: {}.{}",
                class, method.name
            ))),
        }
    }

    /// Pops a recycled register file from the process pool, sized and
    /// zeroed for `registers`, with `args` moved into the low registers.
    fn frame_regs(&mut self, registers: u16, args: Vec<Value>) -> Vec<Value> {
        let mut regs = self.proc.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(registers as usize, Value::Null);
        for (i, arg) in args.into_iter().enumerate() {
            if i < regs.len() {
                regs[i] = arg;
            }
        }
        regs
    }

    fn execute(&mut self, method: &Method, args: Vec<Value>) -> Result<Value, Exec> {
        let mut regs = self.frame_regs(method.registers, args);
        let result = self.run(method, &mut regs);
        regs.clear();
        self.proc.reg_pool.push(regs);
        result
    }

    fn run(&mut self, method: &Method, regs: &mut [Value]) -> Result<Value, Exec> {
        let mut pc: usize = 0;
        let mut last_result = Value::Null;
        let code = &method.code;
        loop {
            if self.fuel == 0 {
                return Err(Exec::OutOfFuel);
            }
            self.fuel -= 1;
            let Some(insn) = code.get(pc) else {
                // Falling off the end is a void return.
                return Ok(Value::Null);
            };
            match insn {
                Instruction::Nop => pc += 1,
                Instruction::Const { dst, value } => {
                    regs[*dst as usize] = Value::Int(*value);
                    pc += 1;
                }
                Instruction::ConstString { dst, value } => {
                    regs[*dst as usize] = Value::Str(value.clone());
                    pc += 1;
                }
                Instruction::ConstNull { dst } => {
                    regs[*dst as usize] = Value::Null;
                    pc += 1;
                }
                Instruction::Move { dst, src } => {
                    regs[*dst as usize] = regs[*src as usize].clone();
                    pc += 1;
                }
                Instruction::MoveResult { dst } => {
                    regs[*dst as usize] = last_result.clone();
                    pc += 1;
                }
                Instruction::NewInstance { dst, class } => {
                    let cls = self.proc.interner.intern(class);
                    let id = self.proc.heap.alloc(cls);
                    regs[*dst as usize] = Value::Obj(id);
                    pc += 1;
                }
                Instruction::Invoke {
                    kind,
                    method: mref,
                    args,
                } => {
                    let argv: Vec<Value> = args.iter().map(|r| regs[*r as usize].clone()).collect();
                    if kind.has_receiver() {
                        match argv.first() {
                            Some(Value::Null) | None => {
                                return Err(Exec::Throw(format!(
                                    "NullPointerException: invoking {}.{}",
                                    mref.class, mref.name
                                )));
                            }
                            _ => {}
                        }
                    }
                    last_result = self.dispatch_invoke(*kind, mref, argv)?;
                    pc += 1;
                }
                Instruction::IGet { dst, obj, field } => {
                    let fsym = self.proc.interner.intern(&field.name);
                    let id = regs[*obj as usize]
                        .as_obj()
                        .ok_or_else(|| npe("iget", &field.name))?;
                    let object = self
                        .proc
                        .heap
                        .get(id)
                        .ok_or_else(|| npe("iget", &field.name))?;
                    regs[*dst as usize] = object.field(fsym).cloned().unwrap_or(Value::Null);
                    pc += 1;
                }
                Instruction::IPut { src, obj, field } => {
                    let fsym = self.proc.interner.intern(&field.name);
                    let value = regs[*src as usize].clone();
                    let id = regs[*obj as usize]
                        .as_obj()
                        .ok_or_else(|| npe("iput", &field.name))?;
                    let object = self
                        .proc
                        .heap
                        .get_mut(id)
                        .ok_or_else(|| npe("iput", &field.name))?;
                    object.put_field(fsym, value);
                    pc += 1;
                }
                Instruction::SGet { dst, field } => {
                    regs[*dst as usize] = self
                        .proc
                        .statics
                        .get(&(field.class.clone(), field.name.clone()))
                        .cloned()
                        .unwrap_or(Value::Null);
                    pc += 1;
                }
                Instruction::SPut { src, field } => {
                    self.proc.statics.insert(
                        (field.class.clone(), field.name.clone()),
                        regs[*src as usize].clone(),
                    );
                    pc += 1;
                }
                Instruction::IfZero { cmp, reg, target } => {
                    let v = int_for_cmp(&regs[*reg as usize]);
                    if cmp.eval(v, 0) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instruction::IfCmp { cmp, a, b, target } => {
                    let av = int_for_cmp(&regs[*a as usize]);
                    let bv = int_for_cmp(&regs[*b as usize]);
                    if cmp.eval(av, bv) {
                        pc = *target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instruction::Goto { target } => pc = *target as usize,
                Instruction::BinOp { op, dst, a, b } => {
                    let av = regs[*a as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    let bv = regs[*b as usize].as_int().ok_or_else(|| {
                        Exec::Throw("ClassCastException: int op on reference".to_string())
                    })?;
                    regs[*dst as usize] = Value::Int(arith(*op, av, bv)?);
                    pc += 1;
                }
                Instruction::ReturnVoid => return Ok(Value::Null),
                Instruction::Return { reg } => {
                    return Ok(std::mem::replace(&mut regs[*reg as usize], Value::Null));
                }
                Instruction::Throw { reg } => {
                    let msg = match std::mem::replace(&mut regs[*reg as usize], Value::Null) {
                        Value::Str(s) => s,
                        other => format!("{other:?}"),
                    };
                    return Err(Exec::Throw(msg));
                }
                Instruction::CheckCast { .. } => pc += 1,
            }
        }
    }

    fn dispatch_invoke(
        &mut self,
        kind: InvokeKind,
        mref: &dydroid_dex::MethodRef,
        argv: Vec<Value>,
    ) -> Result<Value, Exec> {
        if is_framework_class(&mref.class) {
            return intrinsics::dispatch(self, mref, &argv);
        }
        // Receiver runtime class may be a framework intrinsic object even
        // when the static type is an app class alias; but in our model app
        // bytecode names framework classes directly, so plain dispatch.
        let _ = kind;
        self.invoke_resolved(&mref.class, &mref.name, argv)
    }

    /// Allocates a heap object (used by intrinsics).
    pub fn alloc(&mut self, class: &str, intrinsic: crate::heap::IntrinsicState) -> ObjId {
        let sym = self.proc.interner.intern(class);
        self.proc.heap.alloc_intrinsic(sym, intrinsic)
    }
}

fn arith(op: dydroid_dex::BinOp, av: i64, bv: i64) -> Result<i64, Exec> {
    use dydroid_dex::BinOp as B;
    Ok(match op {
        B::Add => av.wrapping_add(bv),
        B::Sub => av.wrapping_sub(bv),
        B::Mul => av.wrapping_mul(bv),
        B::Div | B::Rem if bv == 0 => {
            return Err(Exec::Throw(
                "ArithmeticException: divide by zero".to_string(),
            ));
        }
        B::Div => av.wrapping_div(bv),
        B::Rem => av.wrapping_rem(bv),
        B::Xor => av ^ bv,
        B::And => av & bv,
        B::Or => av | bv,
    })
}

fn npe(op: &str, field: &str) -> Exec {
    Exec::Throw(format!("NullPointerException: {op} {field}"))
}

fn int_for_cmp(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Null => 0,
        Value::Obj(_) => 1,
        Value::Str(s) => i64::from(!s.is_empty()),
    }
}

/// The default value for a method's declared return type.
pub fn default_return(method: &Method) -> Value {
    if method.sig.returns_value() {
        match method.sig.ret() {
            dydroid_dex::TypeDesc::Int
            | dydroid_dex::TypeDesc::Boolean
            | dydroid_dex::TypeDesc::Long => Value::Int(0),
            _ => Value::Null,
        }
    } else {
        Value::Null
    }
}

/// Whether a class is provided by the platform (dispatched intrinsically,
/// never resolved from app class spaces).
pub fn is_framework_class(class: &str) -> bool {
    class.starts_with("java.")
        || class.starts_with("javax.")
        || class.starts_with("android.")
        || class.starts_with("dalvik.")
        || class.starts_with("com.android.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{CmpKind, DexFile, FieldRef, Manifest, MethodRef};

    /// Runs `class.method()` on a fresh device and process, returning
    /// the outcome and the instructions it retired.
    fn run(classes: DexFile, class: &str, method: &str) -> (Result<Value, Exec>, u64) {
        let mut device = Device::new(DeviceConfig::default());
        let mut proc = Process::new("com.a".to_string(), classes, &Manifest::new("com.a"));
        let mut vm = Vm::new(&mut device, &mut proc);
        let r = vm.call_entry(class, method);
        (r, DEFAULT_FUEL - vm.fuel)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_int(0, 6);
        m.const_int(1, 7);
        m.binop(dydroid_dex::BinOp::Mul, 2, 0, 1);
        m.ret(2);
        let (r, used) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(42));
        // const, const, mul, return: one unit of fuel each.
        assert_eq!(used, 4);
    }

    #[test]
    fn divide_by_zero_throws() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_int(0, 1);
        m.const_int(1, 0);
        m.binop(dydroid_dex::BinOp::Div, 2, 0, 1);
        m.ret(2);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("divide by zero")));
    }

    #[test]
    fn loops_and_branches() {
        // Sum 1..=5 via a loop.
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.registers(4);
        m.const_int(0, 0); // acc
        m.const_int(1, 5); // i
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.if_zero(CmpKind::Le, 1, done);
        m.binop(dydroid_dex::BinOp::Add, 0, 0, 1);
        m.const_int(2, 1);
        m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
        m.goto(head);
        m.bind(done);
        m.ret(0);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(15));
    }

    #[test]
    fn infinite_loop_hits_fuel() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        let head = m.label();
        m.bind(head);
        m.goto(head);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r, Err(Exec::OutOfFuel));
    }

    #[test]
    fn fields_and_methods_across_objects() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.a.Counter", "java.lang.Object");
            c.field("n", "I", AccessFlags::PRIVATE);
            let inc = c.method("bump", "()V", AccessFlags::PUBLIC);
            inc.registers(4);
            inc.iget(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            inc.const_int(2, 1);
            inc.binop(dydroid_dex::BinOp::Add, 1, 1, 2);
            inc.iput(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            inc.ret_void();
        }
        {
            let c = b.class("com.a.M", "java.lang.Object");
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(4);
            m.new_instance(0, "com.a.Counter");
            m.invoke_virtual(MethodRef::new("com.a.Counter", "bump", "()V"), vec![0]);
            m.invoke_virtual(MethodRef::new("com.a.Counter", "bump", "()V"), vec![0]);
            m.iget(1, 0, FieldRef::new("com.a.Counter", "n", "I"));
            m.ret(1);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(2));
    }

    #[test]
    fn statics_shared() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.registers(2);
        m.const_int(0, 99);
        m.sput(0, FieldRef::new("com.a.G", "v", "I"));
        m.sget(1, FieldRef::new("com.a.G", "v", "I"));
        m.ret(1);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(99));
    }

    #[test]
    fn null_receiver_is_npe() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_null(0);
        m.invoke_virtual(MethodRef::new("com.a.M", "g", "()V"), vec![0]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("NullPointerException")));
    }

    #[test]
    fn missing_class_throws_cnfe() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.new_instance(0, "com.a.Ghost");
        m.invoke_virtual(MethodRef::new("com.a.Ghost", "g", "()V"), vec![0]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::Throw(msg)) if msg.contains("ClassNotFoundException")));
    }

    #[test]
    fn explicit_throw_propagates() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.const_str(0, "custom failure");
        m.throw(0);
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r, Err(Exec::Throw("custom failure".to_string())));
    }

    #[test]
    fn recursion_depth_limited() {
        let mut b = DexBuilder::new();
        let c = b.class("com.a.M", "java.lang.Object");
        let m = c.method("f", "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
        m.invoke_static(MethodRef::new("com.a.M", "f", "()V"), vec![]);
        m.ret_void();
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert!(matches!(r, Err(Exec::StackOverflow) | Err(Exec::OutOfFuel)));
    }

    #[test]
    fn framework_class_detection() {
        assert!(is_framework_class("java.net.URL"));
        assert!(is_framework_class("dalvik.system.DexClassLoader"));
        assert!(is_framework_class("android.telephony.TelephonyManager"));
        assert!(!is_framework_class("com.example.Main"));
        assert!(!is_framework_class("com.google.ads.Loader"));
    }

    #[test]
    fn virtual_dispatch_uses_runtime_class() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.a.Base", "java.lang.Object");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, 1);
            m.ret(1);
        }
        {
            let c = b.class("com.a.Sub", "com.a.Base");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, 2);
            m.ret(1);
        }
        {
            let c = b.class("com.a.M", "java.lang.Object");
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(4);
            m.new_instance(0, "com.a.Sub");
            // Statically typed as Base; must hit Sub::v.
            m.invoke_virtual(MethodRef::new("com.a.Base", "v", "()I"), vec![0]);
            m.move_result(1);
            m.ret(1);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(2));
    }

    #[test]
    fn megamorphic_receivers_dispatch_to_own_override() {
        // One call site sees Sub1 then Sub2 then Sub1 again and must
        // resolve each receiver's own override.
        let mut b = DexBuilder::new();
        for (cls, v) in [("com.a.Sub1", 10), ("com.a.Sub2", 20)] {
            let c = b.class(cls, "com.a.Base");
            let m = c.method("v", "()I", AccessFlags::PUBLIC);
            m.const_int(1, v);
            m.ret(1);
        }
        b.class("com.a.Base", "java.lang.Object");
        {
            let c = b.class("com.a.M", "java.lang.Object");
            // call(obj) -> obj.v()
            let call = c.method(
                "call",
                "(Ljava/lang/Object;)I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
            );
            call.registers(2);
            call.invoke_virtual(MethodRef::new("com.a.Base", "v", "()I"), vec![0]);
            call.move_result(1);
            call.ret(1);
            let m = c.method("f", "()I", AccessFlags::PUBLIC | AccessFlags::STATIC);
            m.registers(6);
            m.new_instance(0, "com.a.Sub1");
            m.new_instance(1, "com.a.Sub2");
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![0],
            );
            m.move_result(2);
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![1],
            );
            m.move_result(3);
            m.invoke_static(
                MethodRef::new("com.a.M", "call", "(Ljava/lang/Object;)I"),
                vec![0],
            );
            m.move_result(4);
            // 10 + 20 + 10 = 40
            m.binop(dydroid_dex::BinOp::Add, 2, 2, 3);
            m.binop(dydroid_dex::BinOp::Add, 2, 2, 4);
            m.ret(2);
        }
        let (r, _) = run(b.build(), "com.a.M", "f");
        assert_eq!(r.unwrap(), Value::Int(40));
    }
}
