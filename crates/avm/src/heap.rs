//! Runtime values, heap objects and intrinsic framework-object state.
//!
//! The heap is an arena: objects live in one contiguous vector, ids are
//! indices, and nothing is freed individually — processes are
//! short-lived, and whole-app teardown is an O(1) [`Heap::reset`] that
//! keeps the arena's capacity (and pools the per-object field tables)
//! for the next episode. Class and field names are interned
//! [`Sym`]s; resolve them through the owning process's interner.

use crate::sym::Sym;

/// A heap object identifier — doubles as the "hash code" that the download
//  tracker uses to identify objects, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// A runtime value held in a register, field or argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The null reference.
    Null,
    /// A (folded) integer.
    Int(i64),
    /// A string. Strings are immutable values rather than heap objects,
    /// which is all the analyses need.
    Str(String),
    /// A reference to a heap object.
    Obj(ObjId),
}

impl Value {
    /// Interprets the value as an integer (null is 0, as Dalvik registers
    /// are untyped).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Null => Some(0),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object id, if this is an object reference.
    pub fn as_obj(&self) -> Option<ObjId> {
        match self {
            Value::Obj(id) => Some(*id),
            _ => None,
        }
    }

    /// Truthiness for conditional branches: zero/null/empty are false.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(v) => *v != 0,
            Value::Str(s) => !s.is_empty(),
            Value::Obj(_) => true,
        }
    }
}

/// Where an input stream's bytes come from.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSource {
    /// A remote URL (already-fetched body held inline).
    Url(String),
    /// A device file.
    File(String),
    /// An APK asset of the running app (`apk:assets/...`).
    Asset(String),
}

/// Where an output stream's bytes go.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSink {
    /// A device file (append).
    File(String),
    /// The network (POST body to a domain).
    Net(String),
}

/// Framework-specific state attached to intrinsic objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum IntrinsicState {
    /// A plain app object.
    #[default]
    None,
    /// `java.net.URL`.
    Url {
        /// The URL string.
        url: String,
    },
    /// `java.net.URLConnection` (and subclasses).
    UrlConnection {
        /// The connected URL.
        url: String,
    },
    /// An input stream with a known source and buffered contents.
    InputStream {
        /// Source of the bytes.
        source: StreamSource,
        /// The bytes available to read.
        data: Vec<u8>,
    },
    /// An output stream bound to a sink.
    OutputStream {
        /// Destination of written bytes.
        sink: StreamSink,
    },
    /// A byte buffer (`java.io.Buffer` stand-in).
    Buffer {
        /// Current contents.
        data: Vec<u8>,
    },
    /// `java.io.File`.
    File {
        /// Absolute path.
        path: String,
    },
    /// A class loader; indexes into the process's loaded class spaces.
    ClassLoader {
        /// Class-space index within the owning [`crate::Process`].
        space: usize,
    },
    /// `java.lang.Class`.
    Class {
        /// Dotted class name.
        name: String,
    },
    /// `java.lang.reflect.Method`.
    ReflectMethod {
        /// Declaring class.
        class: String,
        /// Method name.
        method: String,
    },
}

/// A heap object: interned runtime class, fields, optional intrinsic
/// state. Fields are a flat `(name, value)` table: objects have a
/// handful of fields, so a linear scan beats hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Interned dotted runtime class name.
    pub class: Sym,
    /// Instance fields as `(interned name, value)` slots, in insertion
    /// order. A name appears at most once.
    pub fields: Vec<(Sym, Value)>,
    /// Framework state for intrinsic objects.
    pub intrinsic: IntrinsicState,
}

impl Object {
    /// Reads a field by interned name.
    pub fn field(&self, name: Sym) -> Option<&Value> {
        self.fields.iter().find(|(s, _)| *s == name).map(|(_, v)| v)
    }

    /// Writes a field by interned name, creating the slot on first write.
    pub fn put_field(&mut self, name: Sym, value: Value) {
        match self.fields.iter_mut().find(|(s, _)| *s == name) {
            Some((_, v)) => *v = value,
            None => self.fields.push((name, value)),
        }
    }
}

/// The per-process heap: an arena of objects.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<Object>,
    /// Field tables recovered by [`Heap::reset`], reused by later
    /// allocations so steady-state episodes allocate nothing.
    spare_fields: Vec<Vec<(Sym, Value)>>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocates a plain object of `class`.
    pub fn alloc(&mut self, class: Sym) -> ObjId {
        self.alloc_intrinsic(class, IntrinsicState::None)
    }

    /// Allocates an object with intrinsic state.
    pub fn alloc_intrinsic(&mut self, class: Sym, intrinsic: IntrinsicState) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        let fields = self.spare_fields.pop().unwrap_or_default();
        self.objects.push(Object {
            class,
            fields,
            intrinsic,
        });
        id
    }

    /// Immutable access to an object.
    pub fn get(&self, id: ObjId) -> Option<&Object> {
        self.objects.get(id.0 as usize)
    }

    /// Mutable access to an object.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut Object> {
        self.objects.get_mut(id.0 as usize)
    }

    /// Number of live objects (the heap never frees individually;
    /// processes are short-lived).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Whole-heap reset: drops every object but keeps the arena's
    /// capacity and recycles the per-object field tables, so the next
    /// episode's allocations are O(1) bump pushes with no heap traffic.
    /// All previously issued [`ObjId`]s become dangling — callers reset
    /// only between episodes, never mid-run.
    pub fn reset(&mut self) {
        for mut obj in self.objects.drain(..) {
            obj.fields.clear();
            self.spare_fields.push(std::mem::take(&mut obj.fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Interner;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Null.as_int(), Some(0));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Obj(ObjId(3)).as_obj(), Some(ObjId(3)));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(1).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("a".into()).truthy());
        assert!(Value::Obj(ObjId(0)).truthy());
    }

    #[test]
    fn alloc_and_fields() {
        let mut names = Interner::new();
        let mut heap = Heap::new();
        let cls = names.intern("com.x.Y");
        let count = names.intern("count");
        let id = heap.alloc(cls);
        assert_eq!(heap.len(), 1);
        heap.get_mut(id).unwrap().put_field(count, Value::Int(3));
        assert_eq!(heap.get(id).unwrap().field(count), Some(&Value::Int(3)));
        assert_eq!(heap.get(id).unwrap().field(names.intern("n")), None);
        assert_eq!(names.resolve(heap.get(id).unwrap().class), "com.x.Y");
    }

    #[test]
    fn put_field_overwrites_in_place() {
        let mut names = Interner::new();
        let mut heap = Heap::new();
        let id = heap.alloc(names.intern("A"));
        let f = names.intern("f");
        let g = names.intern("g");
        let obj = heap.get_mut(id).unwrap();
        obj.put_field(f, Value::Int(1));
        obj.put_field(g, Value::Int(2));
        obj.put_field(f, Value::Int(3));
        assert_eq!(obj.fields.len(), 2);
        assert_eq!(obj.field(f), Some(&Value::Int(3)));
        assert_eq!(obj.field(g), Some(&Value::Int(2)));
    }

    #[test]
    fn intrinsic_objects() {
        let mut names = Interner::new();
        let mut heap = Heap::new();
        let id = heap.alloc_intrinsic(
            names.intern("java.net.URL"),
            IntrinsicState::Url {
                url: "http://a.com/x".to_string(),
            },
        );
        match &heap.get(id).unwrap().intrinsic {
            IntrinsicState::Url { url } => assert_eq!(url, "http://a.com/x"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ids_are_sequential() {
        let mut names = Interner::new();
        let mut heap = Heap::new();
        let a = heap.alloc(names.intern("A"));
        let b = heap.alloc(names.intern("B"));
        assert_eq!(a, ObjId(0));
        assert_eq!(b, ObjId(1));
        assert!(heap.get(ObjId(2)).is_none());
    }

    #[test]
    fn reset_recycles_field_tables() {
        let mut names = Interner::new();
        let mut heap = Heap::new();
        let cls = names.intern("A");
        let f = names.intern("f");
        let id = heap.alloc(cls);
        heap.get_mut(id).unwrap().put_field(f, Value::Int(1));
        heap.alloc(cls);
        heap.reset();
        assert!(heap.is_empty());
        assert!(heap.get(ObjId(0)).is_none());
        // Fresh allocations start clean and ids restart from zero.
        let id = heap.alloc(cls);
        assert_eq!(id, ObjId(0));
        assert_eq!(heap.get(id).unwrap().field(f), None);
    }
}
