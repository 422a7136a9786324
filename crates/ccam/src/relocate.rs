//! Duplicating a segment together with the values that point into it.
//!
//! A session is a graph of `Rc`s: closures in its environment hold
//! handles to its [`CodeSeg`], and `quote` operands in the segment may
//! hold closures in turn. [`Relocation`] copies such a graph so the copy
//! shares no mutable state with the original: the segment is copied
//! block-for-block (every [`crate::seg::BlockId`] keeps its meaning),
//! and each value walked through [`Relocation::value`] is rebuilt with
//! its segment handles re-pointed at the copy. The walk is memoized on
//! `Rc` identity, so sharing inside the graph — one environment captured
//! by many closures, a recursive group's members — is reproduced exactly,
//! and reference cells and arrays are copied once each (cycles through
//! them included).

use crate::instr::Instr;
use crate::seg::{CodeRef, CodeSeg};
use crate::value::{Closure, Frame, RecGroup, Value};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A segment copy in progress: the original, the copy, and the values
/// already rebuilt (keyed by the address of the original `Rc`).
#[derive(Debug)]
pub struct Relocation {
    from: CodeSeg,
    to: CodeSeg,
    /// Rebuilt values by original `Rc` address. A recursive group is
    /// stored as its member 0 and a constructor payload as a `Con` with
    /// the rebuilt payload; only the `Rc` inside is read back.
    done: HashMap<usize, Value, BuildHasherDefault<AddrHasher>>,
}

/// The rebuilt counterpart of `v` given the memo entry for its `Rc`:
/// the entry itself, except that a group member keeps its own index and
/// a constructor its own tag.
fn same_shape(v: &Value, stored: &Value) -> Value {
    match (v, stored) {
        (Value::RecClosure { index, .. }, Value::RecClosure { group, .. }) => Value::RecClosure {
            group: group.clone(),
            index: *index,
        },
        (Value::Con(tag, _), Value::Con(_, payload)) => Value::Con(*tag, payload.clone()),
        _ => stored.clone(),
    }
}

/// The address of an `Rc`'s allocation, the key of identity memo tables.
pub(crate) fn addr<T>(rc: &Rc<T>) -> usize {
    Rc::as_ptr(rc) as *const () as usize
}

/// A set of `Rc` addresses ([`addr`]).
pub(crate) type AddrSet = HashSet<usize, BuildHasherDefault<AddrHasher>>;

/// The hasher of identity memo tables. Addresses are distinct and
/// aligned, so a multiplicative hash with the high bits folded down
/// spreads them; the default SipHash costs more than the rest of a
/// visit.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        let x = (self.0 ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Relocation {
    /// Copies `from` into a fresh segment (see [`CodeSeg`]'s block table:
    /// ids, memo tables and tiers carry over unchanged), re-pointing the
    /// values embedded in its instructions.
    pub fn duplicate(from: &CodeSeg) -> Relocation {
        let mut r = Relocation {
            from: from.clone(),
            to: CodeSeg::new(),
            done: HashMap::default(),
        };
        let to = r.to.clone();
        to.fill_from(from, |i| r.instr(i));
        r
    }

    /// The copy.
    pub fn seg(&self) -> &CodeSeg {
        &self.to
    }

    /// `v` rebuilt for the copy: closures and recursive groups over the
    /// original segment run the same blocks of the copy, and every
    /// mutable cell reachable from `v` is a fresh cell. Handles to other
    /// segments are kept as they are.
    pub fn value(&mut self, v: &Value) -> Value {
        let key = match v {
            Value::Unit | Value::Int(_) | Value::Bool(_) | Value::Str(_) | Value::Con(_, None) => {
                return v.clone()
            }
            Value::Pair(p) => addr(p),
            Value::Frame(f) => addr(f),
            Value::Closure(c) => addr(c),
            Value::RecClosure { group, .. } => addr(group),
            Value::Con(_, Some(payload)) => addr(payload),
            Value::Arena(a) => addr(a),
            Value::Ref(cell) => addr(cell),
            Value::Array(cells) => addr(cells),
        };
        if let Some(done) = self.done.get(&key) {
            return same_shape(v, done);
        }
        // Mutable cells are registered before their contents are walked,
        // so a cycle through one ends at the new cell.
        let out = match v {
            Value::Ref(cell) => {
                let copy = Rc::new(RefCell::new(Value::Unit));
                self.done.insert(key, Value::Ref(copy.clone()));
                let inner = self.value(&cell.borrow());
                *copy.borrow_mut() = inner;
                return Value::Ref(copy);
            }
            Value::Array(cells) => {
                let copy = Rc::new(RefCell::new(Vec::new()));
                self.done.insert(key, Value::Array(copy.clone()));
                let inner = cells.borrow().iter().map(|c| self.value(c)).collect();
                *copy.borrow_mut() = inner;
                return Value::Array(copy);
            }
            Value::Pair(p) => Value::pair(self.value(&p.0), self.value(&p.1)),
            Value::Frame(f) => Value::Frame(Rc::new(Frame {
                link: self.value(&f.link),
                slots: f.slots.iter().map(|s| self.value(s)).collect(),
            })),
            Value::Closure(c) => Value::Closure(Rc::new(Closure {
                env: self.value(&c.env),
                body: CodeRef {
                    seg: self.seg_for(&c.body.seg),
                    block: c.body.block,
                },
            })),
            Value::RecClosure { group, .. } => Value::RecClosure {
                group: Rc::new(RecGroup {
                    env: self.value(&group.env),
                    seg: self.seg_for(&group.seg),
                    bodies: group.bodies.clone(),
                }),
                index: 0,
            },
            Value::Con(tag, Some(payload)) => Value::Con(*tag, Some(Rc::new(self.value(payload)))),
            Value::Arena(a) => {
                let seg = self.seg_for(a.seg());
                Value::Arena(a.relocated(seg, |i| self.instr(i)))
            }
            Value::Unit | Value::Int(_) | Value::Bool(_) | Value::Str(_) | Value::Con(_, None) => {
                unreachable!("immediates return above")
            }
        };
        // A cycle through a cell may have rebuilt this value already
        // while its contents were walked: keep that first copy, which is
        // the one the new cell holds.
        let stored = self.done.entry(key).or_insert(out);
        same_shape(v, stored)
    }

    /// The copy's handle for `seg`: the copy for the original segment,
    /// `seg` itself otherwise.
    fn seg_for(&self, seg: &CodeSeg) -> CodeSeg {
        if CodeSeg::ptr_eq(seg, &self.from) {
            self.to.clone()
        } else {
            seg.clone()
        }
    }

    /// One instruction with its embedded values rebuilt.
    fn instr(&mut self, i: &Instr) -> Instr {
        match i {
            Instr::Quote(v) => Instr::Quote(self.value(v)),
            Instr::QuoteCons(v) => Instr::QuoteCons(Rc::new(self.value(v))),
            Instr::PushQuote(v) => Instr::PushQuote(Rc::new(self.value(v))),
            Instr::Emit(inner) => Instr::Emit(Box::new(self.instr(inner))),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::PrimOp;
    use crate::machine::Machine;
    use crate::seg::BlockId;

    /// A closure over `seg` whose body adds its captured value to the
    /// argument: `[env : snd-of-env + arg]`.
    fn adder(seg: &CodeSeg, env: Value) -> Value {
        // Entered with (env, arg): push; snd; swap; fst; cons; add.
        let body = seg.add_block(vec![
            Instr::Push,
            Instr::Snd,
            Instr::Swap,
            Instr::Fst,
            Instr::ConsPair,
            Instr::Prim(PrimOp::Add),
        ]);
        Value::Closure(Rc::new(Closure {
            env,
            body: CodeRef {
                seg: seg.clone(),
                block: body,
            },
        }))
    }

    fn closure_seg(v: &Value) -> CodeSeg {
        match v {
            Value::Closure(c) => c.body.seg.clone(),
            other => panic!("expected a closure, got {other}"),
        }
    }

    #[test]
    fn copy_keeps_block_ids_and_repoints_closures() {
        let seg = CodeSeg::new();
        let f = adder(&seg, Value::Int(40));
        // A quote operand holding a closure over the same segment.
        let entry = seg.add_block(vec![Instr::Quote(f.clone())]);
        let mut r = Relocation::duplicate(&seg);
        let copy = r.seg().clone();
        assert_eq!(copy.num_blocks(), seg.num_blocks());
        assert_eq!(copy.len(), seg.len());
        for b in 0..seg.num_blocks() as u32 {
            assert_eq!(
                crate::disasm::disassemble(&copy, BlockId(b)),
                crate::disasm::disassemble(&seg, BlockId(b))
            );
        }
        let g = r.value(&f);
        assert!(CodeSeg::ptr_eq(&closure_seg(&g), &copy));
        let Instr::Quote(q) = &copy.block_to_vec(entry)[0] else {
            panic!("quote expected");
        };
        assert!(
            CodeSeg::ptr_eq(&closure_seg(q), &copy),
            "quote operands are re-pointed too"
        );
        // The copy runs: apply g to 2.
        let app = copy.entry(vec![
            Instr::Quote(Value::pair(g, Value::Int(2))),
            Instr::App,
        ]);
        let out = Machine::new().run(app, Value::Unit).unwrap();
        assert!(matches!(out, Value::Int(42)));
        assert_eq!(
            seg.num_blocks() + 1,
            copy.num_blocks(),
            "original untouched"
        );
    }

    #[test]
    fn sharing_is_preserved_and_cells_are_fresh() {
        let seg = CodeSeg::new();
        let cell = Value::Ref(Rc::new(RefCell::new(Value::Int(1))));
        let env = Value::pair(cell.clone(), Value::Int(2));
        let a = adder(&seg, env.clone());
        let b = adder(&seg, env);
        let mut r = Relocation::duplicate(&seg);
        let (a2, b2) = (r.value(&a), r.value(&b));
        let env_of = |v: &Value| match v {
            Value::Closure(c) => c.env.clone(),
            _ => unreachable!(),
        };
        let (Value::Pair(ea), Value::Pair(eb)) = (env_of(&a2), env_of(&b2)) else {
            panic!("pair environments expected");
        };
        assert!(Rc::ptr_eq(&ea, &eb), "one captured environment stays one");
        let (Value::Ref(old), Value::Ref(new)) = (&cell, &ea.0) else {
            panic!("ref cells expected");
        };
        assert!(!Rc::ptr_eq(old, new), "mutable cells are never shared");
        *new.borrow_mut() = Value::Int(99);
        assert!(matches!(*old.borrow(), Value::Int(1)));
    }

    #[test]
    fn cycles_through_refs_terminate() {
        let seg = CodeSeg::new();
        let cell = Rc::new(RefCell::new(Value::Unit));
        let f = adder(&seg, Value::Ref(cell.clone()));
        *cell.borrow_mut() = f.clone();
        let mut r = Relocation::duplicate(&seg);
        let g = r.value(&f);
        let Value::Closure(c) = &g else {
            unreachable!()
        };
        let Value::Ref(new_cell) = &c.env else {
            panic!("ref env expected")
        };
        let Value::Closure(back) = new_cell.borrow().clone() else {
            panic!("closure in cell expected")
        };
        assert!(Rc::ptr_eq(&back, c), "the cycle closes on the copy");
        // Break the cycles so the test does not leak.
        *cell.borrow_mut() = Value::Unit;
        *new_cell.borrow_mut() = Value::Unit;
    }

    #[test]
    fn recursive_group_members_share_one_copied_group() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Snd]);
        let group = Rc::new(RecGroup {
            env: Value::Unit,
            seg: seg.clone(),
            bodies: Rc::new(vec![body, body]),
        });
        let (m0, m1) = (
            Value::RecClosure {
                group: group.clone(),
                index: 0,
            },
            Value::RecClosure { group, index: 1 },
        );
        let mut r = Relocation::duplicate(&seg);
        let (
            Value::RecClosure {
                group: g0,
                index: 0,
            },
            Value::RecClosure {
                group: g1,
                index: 1,
            },
        ) = (r.value(&m0), r.value(&m1))
        else {
            panic!("members keep their indices");
        };
        assert!(Rc::ptr_eq(&g0, &g1));
        assert!(CodeSeg::ptr_eq(&g0.seg, r.seg()));
    }
}
