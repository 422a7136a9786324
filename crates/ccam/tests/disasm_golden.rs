//! Golden test: the disassembly of a program exercising the *entire*
//! instruction set — including the merge family, the indexed-access
//! extension, and the fused superinstructions — is pinned exactly.
//! Adding an instruction without teaching the disassembler (and this
//! test) about it fails here.
//!
//! Code is flat: the program is one segment, nested code is a labelled
//! block, and the listing shows the entry block followed by every
//! referenced block in discovery order.

use ccam::disasm::{census, disassemble};
use ccam::instr::{Instr, MergeSwitchSpec, PrimOp, SwitchArm, SwitchTable, OPCODE_NAMES};
use ccam::seg::{BlockId, CodeSeg};
use ccam::value::Value;
use std::rc::Rc;

/// One instance of every instruction, in opcode-table order where the
/// rendering allows it, laid out flat in one segment.
fn full_instruction_set() -> (CodeSeg, BlockId) {
    let seg = CodeSeg::new();
    let cur_body = seg.add_block(vec![Instr::Snd]);
    let emitted_body = seg.add_block(vec![Instr::Id]);
    let then_arm = seg.add_block(vec![Instr::Id]);
    let else_arm = seg.add_block(vec![Instr::Fst]);
    let rec_body = seg.add_block(vec![Instr::Snd]);
    let switch_arm = seg.add_block(vec![Instr::Snd]);
    let switch_default = seg.add_block(vec![Instr::Id]);
    let entry = seg.add_block(vec![
        Instr::Id,
        Instr::Fst,
        Instr::Snd,
        Instr::Acc(2),
        Instr::Push,
        Instr::Swap,
        Instr::ConsPair,
        Instr::App,
        Instr::Quote(Value::Int(7)),
        Instr::Cur(cur_body),
        Instr::Emit(Box::new(Instr::Acc(1))),
        Instr::Emit(Box::new(Instr::Cur(emitted_body))),
        Instr::LiftV,
        Instr::NewArena,
        Instr::Merge,
        Instr::Call,
        Instr::Branch(then_arm, else_arm),
        Instr::RecClos(Rc::new(vec![rec_body])),
        Instr::Pack(3),
        Instr::Switch(Rc::new(SwitchTable {
            arms: vec![SwitchArm {
                tag: 0,
                bind: true,
                code: switch_arm,
            }],
            default: Some(switch_default),
        })),
        Instr::Prim(PrimOp::Add),
        Instr::Fail(Rc::new("boom".into())),
        Instr::MergeBranch,
        Instr::MergeSwitch(Rc::new(MergeSwitchSpec {
            arms: vec![(0, false), (1, true)],
            default: true,
        })),
        Instr::MergeRec(2),
        Instr::PushAcc(1),
        Instr::QuoteCons(Rc::new(Value::Int(8))),
        Instr::SwapCons,
        Instr::ConsApp,
        Instr::AccApp(0),
        Instr::PushQuote(Rc::new(Value::Bool(true))),
        Instr::EnvCons,
    ]);
    (seg, entry)
}

#[test]
fn disassembly_of_the_full_instruction_set_is_golden() {
    let expected = "\
L0:
  id
  fst
  snd
  acc 2
  push
  swap
  cons
  app
  quote 7
  cur L1
  emit [acc 1]
  emit [cur L2]
  lift
  arena
  merge
  call
  branch L3 else L4
  recclos[L5]
  pack 3
  switch { tag 0 (bind) => L6, default => L7 }
  prim Add
  fail \"boom\"
  merge_branch
  merge_switch[2 arms + default]
  merge_rec[2]
  push_acc 1
  quote_cons 8
  swap_cons
  cons_app
  acc_app 0
  push_quote true
  env_cons

L1:
  snd

L2:
  id

L3:
  id

L4:
  fst

L5:
  snd

L6:
  snd

L7:
  id
";
    let (seg, entry) = full_instruction_set();
    assert_eq!(disassemble(&seg, entry), expected);
}

#[test]
fn full_instruction_set_really_is_full() {
    // The census of the golden program must mention every opcode the
    // machine defines, so the golden test cannot silently go stale.
    let (seg, entry) = full_instruction_set();
    let c = census(&seg, entry);
    for name in OPCODE_NAMES {
        assert!(c.contains_key(name), "golden program misses `{name}`");
    }
}

#[test]
fn listing_is_independent_of_block_layout() {
    // The same program at different segment offsets (and with unrelated
    // blocks interleaved) must produce the identical listing — labels are
    // discovery-ordered, not raw block ids.
    let (seg_a, entry_a) = full_instruction_set();
    let shifted = CodeSeg::new();
    shifted.add_block(vec![Instr::Id; 13]);
    let entry_b = shifted.import_block(&seg_a, entry_a);
    assert_eq!(disassemble(&seg_a, entry_a), disassemble(&shifted, entry_b));
}
