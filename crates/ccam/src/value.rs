//! Run-time values of the CCAM.

use crate::instr::Instr;
use crate::seg::{BlockId, CodeRef, CodeSeg};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A datatype constructor tag. The MLbox compiler assigns one per
/// constructor; the machine only compares them.
pub type ConTag = u32;

/// A group of mutually recursive closure bodies sharing one captured
/// environment.
#[derive(Debug)]
pub struct RecGroup {
    /// The environment captured at group-creation time.
    pub env: Value,
    /// The segment the bodies live in.
    pub seg: CodeSeg,
    /// One body block per function in the group.
    pub bodies: Rc<Vec<BlockId>>,
}

/// A non-recursive closure `[v : P]`.
#[derive(Debug)]
pub struct Closure {
    /// Captured environment value.
    pub env: Value,
    /// Body code.
    pub body: CodeRef,
}

/// A contiguous environment frame (`EnvMode::Flat`).
///
/// A frame with slots `[s0, …, s_{k-1}]` denotes exactly the pair spine
/// `((…(link, s0)…), s_{k-1})`: `slots[k-1]` is the innermost (most
/// recent) binding and `link` is the environment the frame extends.
/// `Instr::Acc(n)` resolves against a frame by indexing `slots[k-1-n]`
/// when `n < k` — a bounds-checked load instead of an `n`-cell spine
/// walk — and otherwise continues into `link` with `n - k`.
///
/// Frames chain: extending a *shared* frame (one also captured by a
/// closure) must not mutate it, so the machine starts a fresh frame whose
/// `link` is the shared one. Extending a uniquely-owned frame appends to
/// `slots` in place, which is what keeps a straight-line `let` nest in
/// one contiguous allocation.
#[derive(Debug)]
pub struct Frame {
    /// The environment this frame extends (spine tail).
    pub link: Value,
    /// Bindings, oldest first; never empty.
    pub slots: Vec<Value>,
}

/// An arena: a dynamically created code sequence under construction
/// (the paper's `{P}`).
///
/// An arena is a **staging buffer plus a target segment**: `emit`/`lift`/
/// `merge` append instructions to the staging buffer, and `call`/`merge`
/// freeze the buffer into a block at the growable tail of the segment.
/// The machine binds each arena to the segment of the frame that created
/// it, so generated code lands in the same contiguous segment as the
/// generator — the paper's arena model with flat addressing. The
/// implementation shares arenas by reference ([`Rc`]); the compiler
/// threads each arena linearly, so the sharing is unobservable.
///
/// Freezing is cached: the arena remembers the last frozen block
/// together with the staging length it covered. Instructions are only
/// ever appended, so a length match proves the cached block is still the
/// current contents, and re-freezing a finished generator returns the
/// same block without copying.
#[derive(Debug)]
pub struct Arena {
    staging: RefCell<Vec<Instr>>,
    seg: CodeSeg,
    cache: Cell<Option<(usize, BlockId)>>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            staging: RefCell::new(Vec::new()),
            seg: CodeSeg::new(),
            cache: Cell::new(None),
        }
    }
}

impl Arena {
    /// A fresh empty arena freezing into its own new segment.
    pub fn new() -> Rc<Self> {
        Rc::new(Arena::default())
    }

    /// A fresh empty arena freezing into `seg` (the machine binds arenas
    /// to the executing frame's segment).
    pub fn in_seg(seg: &CodeSeg) -> Rc<Self> {
        Rc::new(Arena {
            staging: RefCell::new(Vec::new()),
            seg: seg.clone(),
            cache: Cell::new(None),
        })
    }

    /// The segment frozen blocks land in.
    pub fn seg(&self) -> &CodeSeg {
        &self.seg
    }

    /// A copy of this arena freezing into `seg`, its staged instructions
    /// passed through `instr`. The freeze cache carries over: its block
    /// ids stay valid when `seg` is a block-for-block copy of this
    /// arena's segment (or the segment itself).
    pub(crate) fn relocated(&self, seg: CodeSeg, instr: impl FnMut(&Instr) -> Instr) -> Rc<Arena> {
        Rc::new(Arena {
            staging: RefCell::new(self.staging.borrow().iter().map(instr).collect()),
            seg,
            cache: Cell::new(self.cache.get()),
        })
    }

    /// Empties the staging buffer, returning what it held (see
    /// [`CodeSeg::tear_down`]).
    pub(crate) fn take_staging(&self) -> Vec<Instr> {
        self.staging.take()
    }

    /// Appends one instruction. Cached freezes of shorter contents stay
    /// valid as snapshots and are invalidated here only in the sense that
    /// the next freeze sees a longer arena and rebuilds.
    pub fn push(&self, i: Instr) {
        self.staging.borrow_mut().push(i);
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.staging.borrow().len()
    }

    /// The staging length covered by the cached snapshot, if one exists.
    /// A value different from [`Arena::len`] means the next freeze
    /// re-renders (a *refreeze*).
    pub fn snapshot_len(&self) -> Option<usize> {
        self.cache.get().map(|(len, _)| len)
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.staging.borrow().is_empty()
    }

    /// Freezes the current contents into an executable block at the
    /// segment tail (the arena may continue to grow afterwards; the
    /// frozen block is a snapshot).
    pub fn freeze(&self) -> CodeRef {
        self.freeze_cached().0
    }

    /// [`Arena::freeze`], also reporting whether the code was served
    /// from the cached snapshot.
    pub fn freeze_cached(&self) -> (CodeRef, bool) {
        let len = self.staging.borrow().len();
        let (block, hit) = match self.cache.get() {
            Some((cached_len, block)) if cached_len == len => (block, true),
            _ => {
                let block = self.seg.add_block(self.staging.borrow().clone());
                self.cache.set(Some((len, block)));
                (block, false)
            }
        };
        (
            CodeRef {
                seg: self.seg.clone(),
                block,
            },
            hit,
        )
    }
}

/// A CCAM value.
///
/// Values are cheaply cloneable (interior [`Rc`]s) and deliberately
/// **two words** (16 bytes): the machine stack and environment frames
/// are `Vec<Value>`s on the hot path, so every byte of the enum is paid
/// per slot, per push. Keeping it at payload-plus-tag means strings ride
/// behind a thin pointer ([`Rc<String>`], not the fat `Rc<str>`) and the
/// recursive-closure index is a `u32` packed next to the group pointer.
/// `size_of_value_stays_two_words` in the test module pins the bound.
///
/// Tuples are represented as right-nested pairs: `(a, b, c)` is
/// `Pair(a, Pair(b, c))`.
#[derive(Debug, Clone)]
pub enum Value {
    /// The unit value `()`.
    Unit,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string (thin pointer; see [`Value::str`]).
    Str(Rc<String>),
    /// A pair (also the environment spine and tuple encoding).
    Pair(Rc<(Value, Value)>),
    /// A contiguous environment frame (`EnvMode::Flat` only; never a
    /// surface value).
    Frame(Rc<Frame>),
    /// A closure `[v : P]`.
    Closure(Rc<Closure>),
    /// A member of a recursive closure group.
    RecClosure {
        /// The shared group.
        group: Rc<RecGroup>,
        /// Which member this value is.
        index: u32,
    },
    /// A datatype constructor application.
    Con(ConTag, Option<Rc<Value>>),
    /// A code arena under construction.
    Arena(Rc<Arena>),
    /// A mutable reference cell.
    Ref(Rc<RefCell<Value>>),
    /// A mutable array.
    Array(Rc<RefCell<Vec<Value>>>),
}

impl Value {
    /// Builds a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Rc::new((a, b)))
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::new(s.into()))
    }

    /// Builds a right-nested tuple from components.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn tuple(parts: Vec<Value>) -> Value {
        let mut it = parts.into_iter().rev();
        let mut acc = it.next().expect("tuple must be non-empty");
        for v in it {
            acc = Value::pair(v, acc);
        }
        acc
    }

    /// Shared frames up to this many slots are extended by copying
    /// (keeping the frame compact for O(1) access) rather than by
    /// chaining a new one-slot frame. Bounds the copy at a constant
    /// while keeping access chains `depth / COMPACT_SLOTS` nodes long —
    /// without it, top-level declarations (whose frame the session
    /// always shares) would degenerate into a one-slot-per-node spine.
    const COMPACT_SLOTS: usize = 16;

    /// A fresh frame's slot vector, over-allocated a little: most scopes
    /// bind more than once, and slack here converts the follow-up
    /// in-place extensions into plain pushes instead of reallocations.
    fn first_slots(binding: Value) -> Vec<Value> {
        let mut slots = Vec::with_capacity(4);
        slots.push(binding);
        slots
    }

    /// Extends an environment with one binding — the dynamics of
    /// `Instr::EnvCons`. A uniquely-owned frame grows in place; a shared
    /// frame (captured by some closure or the session) is either copied
    /// while small (see `Self::COMPACT_SLOTS`) or linked to from a
    /// fresh frame; any other environment value becomes the `link` of a
    /// first frame. Frames are immutable as values, so every branch
    /// denotes the same extended environment.
    #[inline]
    pub fn env_extend(env: Value, binding: Value) -> Value {
        match env {
            Value::Frame(mut frame) => {
                if let Some(f) = Rc::get_mut(&mut frame) {
                    f.slots.push(binding);
                    Value::Frame(frame)
                } else if frame.slots.len() < Self::COMPACT_SLOTS {
                    let mut slots = Vec::with_capacity(frame.slots.len() + 4);
                    slots.extend(frame.slots.iter().cloned());
                    slots.push(binding);
                    Value::Frame(Rc::new(Frame {
                        link: frame.link.clone(),
                        slots,
                    }))
                } else {
                    Value::Frame(Rc::new(Frame {
                        link: Value::Frame(frame),
                        slots: Self::first_slots(binding),
                    }))
                }
            }
            other => Value::Frame(Rc::new(Frame {
                link: other,
                slots: Self::first_slots(binding),
            })),
        }
    }

    /// Resolves `Acc(n)` against a mixed pair/frame environment spine:
    /// `n` applications of `fst` followed by `snd`. Frames answer in one
    /// bounds-checked index per frame node. `None` when the spine runs
    /// out before the access lands.
    #[inline]
    pub fn env_acc(&self, mut n: usize) -> Option<Value> {
        let mut cur = self;
        loop {
            match cur {
                Value::Pair(p) => {
                    if n == 0 {
                        return Some(p.1.clone());
                    }
                    n -= 1;
                    cur = &p.0;
                }
                Value::Frame(f) => {
                    let k = f.slots.len();
                    if n < k {
                        return Some(f.slots[k - 1 - n].clone());
                    }
                    n -= k;
                    cur = &f.link;
                }
                _ => return None,
            }
        }
    }

    /// `fst` of an environment node: for a pair the left half, for a
    /// frame the frame minus its innermost slot (the `link` when only one
    /// slot remains). `None` on non-environment values.
    #[inline]
    pub fn env_fst(&self) -> Option<Value> {
        match self {
            Value::Pair(p) => Some(p.0.clone()),
            Value::Frame(f) => Some(match f.slots.len() {
                0 | 1 => f.link.clone(),
                k => Value::Frame(Rc::new(Frame {
                    link: f.link.clone(),
                    slots: f.slots[..k - 1].to_vec(),
                })),
            }),
            _ => None,
        }
    }

    /// `snd` of an environment node: for a pair the right half, for a
    /// frame the innermost slot. `None` on non-environment values.
    #[inline]
    pub fn env_snd(&self) -> Option<Value> {
        match self {
            Value::Pair(p) => Some(p.1.clone()),
            Value::Frame(f) => f.slots.last().cloned(),
            _ => None,
        }
    }

    /// Structural equality as used by the `=` primitive: defined for
    /// unit, integers, booleans, strings, pairs, and constructors;
    /// reference cells and arrays compare by identity. Returns `None` for
    /// closures and arenas (equality is not defined on them).
    ///
    /// Iterative (explicit worklist): the `=` primitive is reachable from
    /// user programs with arbitrarily deep spines, and a recursive
    /// traversal overflows the Rust stack around a few tens of thousands
    /// of cells.
    pub fn structural_eq(&self, other: &Value) -> Option<bool> {
        let mut work: Vec<(&Value, &Value)> = vec![(self, other)];
        while let Some((a, b)) = work.pop() {
            match (a, b) {
                (Value::Unit, Value::Unit) => {}
                (Value::Int(a), Value::Int(b)) => {
                    if a != b {
                        return Some(false);
                    }
                }
                (Value::Bool(a), Value::Bool(b)) => {
                    if a != b {
                        return Some(false);
                    }
                }
                (Value::Str(a), Value::Str(b)) => {
                    if a != b {
                        return Some(false);
                    }
                }
                (Value::Pair(a), Value::Pair(b)) => {
                    if !Rc::ptr_eq(a, b) {
                        // Left half on top of the stack: preserves the
                        // recursive version's left-to-right short-circuit.
                        work.push((&a.1, &b.1));
                        work.push((&a.0, &b.0));
                    }
                }
                (Value::Frame(a), Value::Frame(b)) => {
                    // Frames are an internal environment representation;
                    // `=` never sees one from a well-typed program. Equal
                    // chunking compares structurally, anything else is
                    // undefined (like closures).
                    if !Rc::ptr_eq(a, b) {
                        if a.slots.len() != b.slots.len() {
                            return None;
                        }
                        work.push((&a.link, &b.link));
                        for (x, y) in a.slots.iter().zip(b.slots.iter()) {
                            work.push((x, y));
                        }
                    }
                }
                (Value::Con(ta, pa), Value::Con(tb, pb)) => {
                    if ta != tb {
                        return Some(false);
                    }
                    match (pa, pb) {
                        (None, None) => {}
                        (Some(a), Some(b)) => work.push((a, b)),
                        _ => return Some(false),
                    }
                }
                (Value::Ref(a), Value::Ref(b)) => {
                    if !Rc::ptr_eq(a, b) {
                        return Some(false);
                    }
                }
                (Value::Array(a), Value::Array(b)) => {
                    if !Rc::ptr_eq(a, b) {
                        return Some(false);
                    }
                }
                _ => return None,
            }
        }
        Some(true)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(p) => write!(f, "({}, {})", p.0, p.1),
            Value::Frame(fr) => {
                // Rendered exactly as the pair spine the frame denotes,
                // so both environment representations print alike.
                for _ in &fr.slots {
                    f.write_str("(")?;
                }
                write!(f, "{}", fr.link)?;
                for s in &fr.slots {
                    write!(f, ", {s})")?;
                }
                Ok(())
            }
            Value::Closure(_) => f.write_str("<fn>"),
            Value::RecClosure { .. } => f.write_str("<fn rec>"),
            Value::Con(tag, None) => write!(f, "con{tag}"),
            Value::Con(tag, Some(v)) => write!(f, "con{tag}({v})"),
            Value::Arena(a) => write!(f, "<arena:{}>", a.len()),
            Value::Ref(v) => write!(f, "ref {}", v.borrow()),
            Value::Array(a) => {
                f.write_str("[|")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("|]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_of_value_stays_two_words() {
        // The machine stack and flat environment frames are Vec<Value>;
        // every variant must fit in payload + tag. Growing this (e.g. by
        // widening RecClosure's index or fattening Str back to Rc<str>)
        // is a hot-path regression, not a refactor.
        assert!(
            std::mem::size_of::<Value>() <= 16,
            "Value grew past two words: {} bytes",
            std::mem::size_of::<Value>()
        );
    }

    #[test]
    fn tuple_is_right_nested() {
        let t = Value::tuple(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        match t {
            Value::Pair(p) => {
                assert!(matches!(p.0, Value::Int(1)));
                assert!(matches!(&p.1, Value::Pair(q) if matches!(q.0, Value::Int(2))));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn structural_eq_on_cons() {
        let a = Value::Con(3, Some(Rc::new(Value::Int(1))));
        let b = Value::Con(3, Some(Rc::new(Value::Int(1))));
        let c = Value::Con(4, Some(Rc::new(Value::Int(1))));
        assert_eq!(a.structural_eq(&b), Some(true));
        assert_eq!(a.structural_eq(&c), Some(false));
    }

    #[test]
    fn refs_compare_by_identity() {
        let r1 = Value::Ref(Rc::new(RefCell::new(Value::Int(1))));
        let r2 = Value::Ref(Rc::new(RefCell::new(Value::Int(1))));
        assert_eq!(r1.structural_eq(&r1.clone()), Some(true));
        assert_eq!(r1.structural_eq(&r2), Some(false));
    }

    #[test]
    fn arena_grows_and_freezes() {
        let a = Arena::new();
        assert!(a.is_empty());
        a.push(Instr::Fst);
        a.push(Instr::Snd);
        let code = a.freeze();
        assert_eq!(code.len(), 2);
        a.push(Instr::Id);
        assert_eq!(a.len(), 3);
        assert_eq!(code.len(), 2, "frozen snapshot is immutable");
    }

    #[test]
    fn freeze_is_cached_until_growth() {
        let a = Arena::new();
        a.push(Instr::Fst);
        let c1 = a.freeze();
        let c2 = a.freeze();
        assert!(
            CodeRef::same_block(&c1, &c2),
            "repeated freeze reuses the snapshot"
        );
        a.push(Instr::Snd);
        let c3 = a.freeze();
        assert!(
            !CodeRef::same_block(&c1, &c3),
            "growth invalidates the cache"
        );
        assert_eq!(c3.len(), 2);
        let (c4, hit) = a.freeze_cached();
        assert!(hit, "served from the snapshot");
        assert!(CodeRef::same_block(&c3, &c4));
    }

    #[test]
    fn frozen_blocks_share_one_segment_tail() {
        let a = Arena::new();
        a.push(Instr::Fst);
        let c1 = a.freeze();
        a.push(Instr::Snd);
        let c2 = a.freeze();
        assert!(
            CodeSeg::ptr_eq(&c1.seg, &c2.seg),
            "successive freezes append to one segment"
        );
        assert!(CodeSeg::ptr_eq(a.seg(), &c1.seg));
    }

    #[test]
    fn structural_eq_is_iterative_on_deep_spines() {
        // Regression: the recursive version overflowed the stack on the
        // deep environments `table1 deep-env` builds. 100k cells must
        // compare without recursing on the Rust stack. (The spines are
        // torn down iteratively too, to keep Drop off the deep path.)
        let depth = 100_000;
        let build = || {
            let mut v = Value::Unit;
            for i in 0..depth {
                v = Value::pair(v, Value::Int(i));
            }
            v
        };
        let (a, b) = (build(), build());
        assert_eq!(a.structural_eq(&b), Some(true));
        let c = Value::pair(a.clone(), Value::Int(-1));
        let d = Value::pair(b.clone(), Value::Int(-2));
        assert_eq!(c.structural_eq(&d), Some(false));
        for mut v in [a, b, c, d] {
            while let Value::Pair(p) = v {
                match Rc::try_unwrap(p) {
                    Ok((fst, _)) => v = fst,
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn frames_denote_their_pair_spine() {
        // ((((), 1), 2), 3) as one frame.
        let env = Value::env_extend(
            Value::env_extend(Value::env_extend(Value::Unit, Value::Int(1)), Value::Int(2)),
            Value::Int(3),
        );
        match &env {
            Value::Frame(f) => assert_eq!(f.slots.len(), 3, "unique frames grow in place"),
            other => panic!("expected frame, got {other}"),
        }
        // Acc(n) agrees with the spine reading.
        assert!(matches!(env.env_acc(0), Some(Value::Int(3))));
        assert!(matches!(env.env_acc(1), Some(Value::Int(2))));
        assert!(matches!(env.env_acc(2), Some(Value::Int(1))));
        assert!(env.env_acc(3).is_none(), "unit link ends the spine");
        // fst/snd agree too.
        assert!(matches!(env.env_snd(), Some(Value::Int(3))));
        let rest = env.env_fst().expect("fst");
        assert!(matches!(rest.env_snd(), Some(Value::Int(2))));
        // Display matches the equivalent pair spine.
        let spine = Value::pair(
            Value::pair(Value::pair(Value::Unit, Value::Int(1)), Value::Int(2)),
            Value::Int(3),
        );
        assert_eq!(env.to_string(), spine.to_string());
        // Extending a shared frame must not mutate it.
        let shared = env.clone();
        let extended = Value::env_extend(env, Value::Int(4));
        assert!(matches!(shared.env_acc(0), Some(Value::Int(3))));
        assert!(matches!(extended.env_acc(0), Some(Value::Int(4))));
        assert!(matches!(extended.env_acc(3), Some(Value::Int(1))));
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Unit,
            Value::Int(-1),
            Value::pair(Value::Bool(true), Value::Unit),
            Value::Con(0, None),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
