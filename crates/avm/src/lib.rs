//! # dydroid-avm
//!
//! A simulated Android runtime — the substrate DyDroid's dynamic analysis
//! runs on. The real system instruments Android 4.3.1 on a Galaxy Nexus;
//! this crate provides a faithful miniature with the same observable
//! surface:
//!
//! - a per-app **filesystem** with internal storage (`/data/data/<pkg>`),
//!   world-writable external storage (`/mnt/sdcard`, pre-KitKat semantics),
//!   and system paths ([`fs`]);
//! - a **network** of simulated remote servers ([`net`]);
//! - **device state**: system time, airplane mode, WiFi, location service —
//!   the four runtime-environment knobs of Table VIII ([`device`]);
//! - a register-based **bytecode interpreter** executing the
//!   [`dydroid_dex`] ISA with a real call stack, so Java stack traces and
//!   call-site attribution work exactly as in Figure 2 ([`interp`]);
//! - **framework intrinsics** for the API surface the measurement needs:
//!   class loaders, JNI loading, URL/stream I/O, the 18 privacy sources,
//!   content providers and behaviour sinks ([`intrinsics`]);
//! - a **native pseudo-code executor** so `.so` payloads (packer decrypt
//!   stubs, the Chathook ptrace family) have real effects ([`nativerun`]);
//! - the **DyDroid instrumentation** itself: DCL logging with stack-trace
//!   call sites, loaded-binary interception with delete/rename suppression,
//!   and the object-granularity download tracker of Table I ([`hooks`],
//!   [`flow`]).
//!
//! ## Example
//!
//! ```
//! use dydroid_avm::{Device, DeviceConfig};
//! use dydroid_dex::{Apk, DexFile, Manifest};
//!
//! let mut device = Device::new(DeviceConfig::default());
//! let apk = Apk::build(Manifest::new("com.example.app"), DexFile::new());
//! device.install(&apk.to_bytes())?;
//! assert!(device.is_installed("com.example.app"));
//! # Ok::<(), dydroid_avm::AvmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod events;
pub mod flow;
pub mod fs;
pub mod heap;
pub mod hooks;
pub mod interp;
pub mod intrinsics;
pub mod nativerun;
pub mod net;
pub mod paths;
pub mod process;
pub mod sym;

pub use device::{Device, DeviceConfig, DeviceState};
pub use error::{AvmError, Exec};
pub use events::{BehaviorEvent, DclEvent, DclKind, Event, EventLog, FileOp};
pub use flow::{FlowGraph, FlowNode};
pub use fs::{FileSystem, FsError, Owner};
pub use heap::{Heap, ObjId, Value};
pub use hooks::{Instrumentation, InterceptedBinary};
pub use net::Network;
pub use process::{Process, Statics};
pub use sym::{Interner, Sym};
