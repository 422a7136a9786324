//! Tearing down a segment together with the values that point into it —
//! the inverse of [`crate::relocate`].
//!
//! A session's graph of `Rc`s can keep itself alive after its last
//! outside handle is gone, in two ways:
//!
//! - **through its segment**: a `quote` operand (a `lift`ed value) holds
//!   a closure whose [`CodeRef`](crate::seg::CodeRef) points back into
//!   the segment holding the `quote`;
//! - **through a mutable cell**: a `ref`, an array, or an arena's staging
//!   buffer holds a value whose environment reaches the cell (a memo
//!   table of closures over the scope that binds the table).
//!
//! There is no third way: immutable nodes are built from nodes that
//! already exist, so every cycle passes through a segment's instructions
//! or a mutable cell. [`CodeSeg::tear_down`] empties both, and the graph
//! frees itself as its outside handles drop.

use crate::instr::Instr;
use crate::relocate::{addr, AddrSet};
use crate::seg::CodeSeg;
use crate::value::Value;
use std::rc::Rc;

impl CodeSeg {
    /// Tears the segment down: empties its instructions, block table,
    /// opt memo and tier table, and empties every mutable cell reachable
    /// from `roots` or from the values its instructions quote (a `ref`
    /// holds `()` afterwards; an array or an arena's staging buffer is
    /// empty). Values over other segments are left as they are: they
    /// belong to whoever owns those segments.
    ///
    /// Call it when the owner of the segment (a session, a decoded
    /// artifact) goes away, with the owner's own values as `roots`. Every
    /// value that escaped the owner is dead afterwards: running a closure
    /// over this segment fails with
    /// [`MachineError::DanglingBlock`](crate::machine::MachineError::DanglingBlock).
    ///
    /// The walk is iterative and reads each shared `Rc` once (memoized on
    /// its address, as [`crate::relocate`] is), so deep or shared graphs
    /// cost one step per node. It runs in rounds: a round reads the graph
    /// below its roots without touching a reference count and collects
    /// the cells it finds; their emptied contents are the next round's
    /// roots.
    pub fn tear_down(&self, roots: impl IntoIterator<Item = Value>) {
        let instrs = self.take_all();
        let mut held: Vec<Value> = roots.into_iter().collect();
        held.extend(instrs.iter().filter_map(Instr::quoted).cloned());
        drop(instrs);
        let mut walk = Walk {
            seg: self,
            seen: AddrSet::default(),
            cells: Vec::new(),
        };
        while !held.is_empty() {
            walk.round(&held);
            held = walk.empty_cells();
        }
    }
}

/// A teardown in progress: the `Rc`s already read (by address) and the
/// cells found by the current round.
///
/// A round only reads; the graph changes between rounds, when cells are
/// emptied and the previous round's roots dropped. No `Rc` is allocated
/// during a teardown, so an address read earlier never names another
/// node later.
struct Walk<'a> {
    seg: &'a CodeSeg,
    seen: AddrSet,
    cells: Vec<Value>,
}

impl Walk<'_> {
    /// Whether `rc` is read for the first time. A node with one handle
    /// is reached by one path only and needs no memo entry.
    fn first_visit<T>(&mut self, rc: &Rc<T>) -> bool {
        Rc::strong_count(rc) == 1 || self.seen.insert(addr(rc))
    }

    fn own(&self, seg: &CodeSeg) -> bool {
        CodeSeg::ptr_eq(seg, self.seg)
    }

    /// Reads everything below `roots`, collecting the mutable cells (and
    /// this segment's arenas) it finds.
    fn round(&mut self, roots: &[Value]) {
        let mut stack: Vec<&Value> = roots.iter().collect();
        while let Some(v) = stack.pop() {
            match v {
                Value::Unit
                | Value::Int(_)
                | Value::Bool(_)
                | Value::Str(_)
                | Value::Con(_, None) => {}
                Value::Pair(p) => {
                    if self.first_visit(p) {
                        stack.extend([&p.0, &p.1]);
                    }
                }
                Value::Frame(f) => {
                    if self.first_visit(f) {
                        stack.push(&f.link);
                        stack.extend(&f.slots);
                    }
                }
                Value::Con(_, Some(payload)) => {
                    if self.first_visit(payload) {
                        stack.push(payload);
                    }
                }
                Value::Closure(c) => {
                    if self.own(&c.body.seg) && self.first_visit(c) {
                        stack.push(&c.env);
                    }
                }
                Value::RecClosure { group, .. } => {
                    if self.own(&group.seg) && self.first_visit(group) {
                        stack.push(&group.env);
                    }
                }
                Value::Arena(a) => {
                    if self.own(a.seg()) && self.first_visit(a) {
                        self.cells.push(v.clone());
                    }
                }
                Value::Ref(cell) => {
                    if self.first_visit(cell) {
                        self.cells.push(v.clone());
                    }
                }
                Value::Array(cells) => {
                    if self.first_visit(cells) {
                        self.cells.push(v.clone());
                    }
                }
            }
        }
    }

    /// Empties the cells the last round found, returning what they held.
    fn empty_cells(&mut self) -> Vec<Value> {
        let mut contents = Vec::new();
        for cell in self.cells.drain(..) {
            match cell {
                Value::Ref(cell) => contents.push(cell.replace(Value::Unit)),
                Value::Array(cells) => contents.append(&mut cells.take()),
                Value::Arena(a) => {
                    let staged = a.take_staging();
                    contents.extend(staged.iter().filter_map(Instr::quoted).cloned());
                }
                _ => unreachable!("only cells are collected"),
            }
        }
        contents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineError};
    use crate::seg::{BlockId, CodeRef};
    use crate::value::{Closure, RecGroup};
    use std::cell::RefCell;

    /// A closure over `seg` returning its argument.
    fn identity(seg: &CodeSeg, env: Value) -> Value {
        let body = seg.add_block(vec![Instr::Snd]);
        Value::Closure(Rc::new(Closure {
            env,
            body: CodeRef {
                seg: seg.clone(),
                block: body,
            },
        }))
    }

    #[test]
    fn a_self_quoting_segment_is_freed() {
        let seg = CodeSeg::new();
        let f = identity(&seg, Value::Unit);
        seg.add_block(vec![Instr::Quote(f)]);
        let weak = seg.downgrade();
        seg.tear_down([]);
        assert_eq!(seg.num_blocks(), 0);
        drop(seg);
        assert!(weak.upgrade().is_none(), "the quote no longer holds it");
    }

    #[test]
    fn cycles_through_cells_are_broken() {
        // env = (ref [closure over env], array [env]); a recursive group
        // whose environment holds the ref too.
        let seg = CodeSeg::new();
        let cell = Rc::new(RefCell::new(Value::Unit));
        let array = Rc::new(RefCell::new(Vec::new()));
        let env = Value::pair(Value::Ref(cell.clone()), Value::Array(array.clone()));
        *cell.borrow_mut() = identity(&seg, env.clone());
        array.borrow_mut().push(env.clone());
        let body = seg.add_block(vec![Instr::Snd]);
        let group = Rc::new(RecGroup {
            env: env.clone(),
            seg: seg.clone(),
            bodies: Rc::new(vec![body]),
        });
        let weak_cell = Rc::downgrade(&cell);
        let weak_seg = seg.downgrade();
        seg.tear_down([Value::RecClosure { group, index: 0 }]);
        assert!(matches!(*cell.borrow(), Value::Unit));
        assert!(array.borrow().is_empty());
        drop((seg, cell, array, env));
        assert!(weak_cell.upgrade().is_none());
        assert!(weak_seg.upgrade().is_none());
    }

    #[test]
    fn other_segments_are_left_alone() {
        let (mine, theirs) = (CodeSeg::new(), CodeSeg::new());
        let cell = Rc::new(RefCell::new(Value::Int(7)));
        let foreign = identity(&theirs, Value::Ref(cell.clone()));
        mine.add_block(vec![Instr::Quote(foreign)]);
        mine.tear_down([]);
        assert!(matches!(*cell.borrow(), Value::Int(7)));
        assert_eq!(theirs.num_blocks(), 1);
    }

    #[test]
    fn running_torn_down_code_is_a_typed_error() {
        let seg = CodeSeg::new();
        let f = identity(&seg, Value::Unit);
        seg.tear_down([]);
        let app = CodeSeg::new().entry(vec![Instr::App]);
        let err = Machine::new()
            .run(app, Value::pair(f, Value::Int(1)))
            .unwrap_err();
        assert_eq!(err, MachineError::DanglingBlock { block: 0 });
        assert_eq!(seg.block_bounds(BlockId(0)), None);
    }
}
