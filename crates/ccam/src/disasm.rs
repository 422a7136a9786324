//! Disassembler: renders CCAM code as block-labelled text, for debugging,
//! documentation, and golden tests.
//!
//! Code is flat ([`crate::seg::CodeSeg`]), so a listing is a sequence of
//! labelled blocks rather than an indented tree: the entry block prints
//! first, and every block it (transitively) references follows, one
//! instruction per line. Labels are assigned in first-reference discovery
//! order starting from `L0` for the entry, so the listing is stable under
//! unrelated segment growth — two structurally identical programs
//! disassemble identically no matter where their blocks sit in the
//! segment.

use crate::instr::Instr;
use crate::seg::{BlockId, CodeSeg};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders the block `entry` of `seg` and every block reachable from it.
pub fn disassemble(seg: &CodeSeg, entry: BlockId) -> String {
    let mut labels = Labels::new(entry);
    let mut out = String::new();
    let mut next = 0usize;
    while next < labels.order.len() {
        let block = labels.order[next];
        if next > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "L{next}:");
        for i in seg.block_to_vec(block) {
            let _ = writeln!(out, "  {}", label(&i, &mut labels));
        }
        next += 1;
    }
    out
}

/// Display-label assignment: block ids renumbered in discovery order.
struct Labels {
    names: HashMap<BlockId, usize>,
    order: Vec<BlockId>,
}

impl Labels {
    fn new(entry: BlockId) -> Labels {
        let mut l = Labels {
            names: HashMap::new(),
            order: Vec::new(),
        };
        l.name(entry);
        l
    }

    /// The display name of `b`, assigning the next number on first sight.
    fn name(&mut self, b: BlockId) -> String {
        let n = *self.names.entry(b).or_insert_with(|| {
            self.order.push(b);
            self.order.len() - 1
        });
        format!("L{n}")
    }
}

/// The one-line rendering of an instruction: the mnemonic plus its
/// operand, if any. Block operands render as labels (registering the
/// blocks for listing).
fn label(i: &Instr, labels: &mut Labels) -> String {
    match i {
        Instr::Acc(n) => format!("acc {n}"),
        Instr::Quote(v) => format!("quote {v}"),
        Instr::Prim(op) => format!("prim {op:?}"),
        Instr::Pack(tag) => format!("pack {tag}"),
        Instr::Fail(m) => format!("fail {m:?}"),
        Instr::Cur(c) => format!("cur {}", labels.name(*c)),
        Instr::Branch(t, e) => {
            let t = labels.name(*t);
            let e = labels.name(*e);
            format!("branch {t} else {e}")
        }
        Instr::Switch(table) => {
            let mut s = String::from("switch {");
            for (k, arm) in table.arms.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    " tag {}{} => {}",
                    arm.tag,
                    if arm.bind { " (bind)" } else { "" },
                    labels.name(arm.code)
                );
            }
            if let Some(d) = table.default {
                let _ = write!(s, ", default => {}", labels.name(d));
            }
            s.push_str(" }");
            s
        }
        Instr::RecClos(bodies) => {
            let names: Vec<String> = bodies.iter().map(|b| labels.name(*b)).collect();
            format!("recclos[{}]", names.join(", "))
        }
        Instr::Emit(inner) => format!("emit [{}]", label(inner, labels)),
        Instr::MergeSwitch(spec) => format!(
            "merge_switch[{} arms{}]",
            spec.arms.len(),
            if spec.default { " + default" } else { "" }
        ),
        Instr::MergeRec(n) => format!("merge_rec[{n}]"),
        Instr::PushAcc(n) => format!("push_acc {n}"),
        Instr::AccApp(n) => format!("acc_app {n}"),
        Instr::QuoteCons(v) => format!("quote_cons {v}"),
        Instr::PushQuote(v) => format!("push_quote {v}"),
        // Operand-free instructions render as their mnemonic.
        Instr::Id
        | Instr::Fst
        | Instr::Snd
        | Instr::Push
        | Instr::Swap
        | Instr::ConsPair
        | Instr::App
        | Instr::LiftV
        | Instr::NewArena
        | Instr::Merge
        | Instr::Call
        | Instr::MergeBranch
        | Instr::SwapCons
        | Instr::ConsApp
        | Instr::EnvCons => i.mnemonic().to_string(),
    }
}

/// Counts instructions by mnemonic, recursing into `Cur`, `Branch`,
/// `Switch`, `RecClos`, and `Emit` operands **per reference**: a block
/// referenced twice is counted twice, matching what would execute if both
/// references ran. Useful for asserting properties of *generated* code —
/// e.g. that specialization eliminated all `switch` dispatch.
pub fn census(seg: &CodeSeg, entry: BlockId) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    visit_block(seg, entry, false, &mut out);
    out
}

/// [`census`] of the code the tier controller runs: every block the
/// controller promoted counts as its promoted rendering.
pub fn promoted_census(seg: &CodeSeg, entry: BlockId) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    visit_block(seg, entry, true, &mut out);
    out
}

fn visit_block(seg: &CodeSeg, b: BlockId, promoted: bool, out: &mut BTreeMap<&'static str, usize>) {
    let b = if promoted {
        seg.promoted(b).unwrap_or(b)
    } else {
        b
    };
    // Copy the block out so no segment borrow is held across recursion.
    for i in seg.block_to_vec(b) {
        visit(seg, &i, promoted, out);
    }
}

fn visit(seg: &CodeSeg, i: &Instr, promoted: bool, out: &mut BTreeMap<&'static str, usize>) {
    *out.entry(i.mnemonic()).or_insert(0) += 1;
    match i {
        Instr::Emit(inner) => visit(seg, inner, promoted, out),
        _ => {
            for b in i.block_refs() {
                visit_block(seg, b, promoted, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn renders_labelled_blocks() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Snd, Instr::Quote(Value::Int(3))]);
        let entry = seg.add_block(vec![
            Instr::Push,
            Instr::Cur(body),
            Instr::Emit(Box::new(Instr::App)),
        ]);
        let text = disassemble(&seg, entry);
        assert!(text.starts_with("L0:\n"), "{text}");
        assert!(text.contains("  push\n"));
        assert!(text.contains("  cur L1\n"));
        assert!(text.contains("  emit [app]\n"));
        assert!(text.contains("L1:\n"));
        assert!(text.contains("  snd\n"));
        assert!(text.contains("  quote 3\n"));
    }

    #[test]
    fn labels_are_discovery_order_not_block_ids() {
        // The same program laid out at different segment offsets must
        // disassemble identically.
        let mk = |seg: &CodeSeg| {
            let body = seg.add_block(vec![Instr::Snd]);
            seg.add_block(vec![Instr::Cur(body), Instr::App])
        };
        let a = CodeSeg::new();
        let ea = mk(&a);
        let b = CodeSeg::new();
        b.add_block(vec![Instr::Id; 7]); // shift every subsequent block id
        let eb = mk(&b);
        assert_eq!(disassemble(&a, ea), disassemble(&b, eb));
    }

    #[test]
    fn shared_blocks_list_once_but_census_counts_per_reference() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Snd]);
        let entry = seg.add_block(vec![Instr::Cur(body), Instr::Cur(body)]);
        let text = disassemble(&seg, entry);
        assert_eq!(text.matches("L1:").count(), 1, "{text}");
        assert!(text.contains("  cur L1\n  cur L1\n"), "{text}");
        let c = census(&seg, entry);
        assert_eq!(c["cur"], 2);
        assert_eq!(c["snd"], 2, "counted per reference");
    }

    #[test]
    fn census_counts_recursively() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Snd, Instr::Push]);
        let entry = seg.add_block(vec![
            Instr::Push,
            Instr::Cur(body),
            Instr::Emit(Box::new(Instr::App)),
        ]);
        let c = census(&seg, entry);
        assert_eq!(c["push"], 2);
        assert_eq!(c["cur"], 1);
        assert_eq!(c["emit"], 1);
        assert_eq!(c["app"], 1);
        assert_eq!(c["snd"], 1);
    }

    #[test]
    fn renders_env_cons() {
        let seg = CodeSeg::new();
        let entry = seg.add_block(vec![
            Instr::Push,
            Instr::Quote(Value::Int(9)),
            Instr::EnvCons,
            Instr::Acc(0),
        ]);
        let text = disassemble(&seg, entry);
        assert_eq!(text, "L0:\n  push\n  quote 9\n  env_cons\n  acc 0\n");
        let c = census(&seg, entry);
        assert_eq!(c["env_cons"], 1);
    }

    #[test]
    fn renders_branch_and_switch() {
        use crate::instr::{SwitchArm, SwitchTable};
        use std::rc::Rc;
        let seg = CodeSeg::new();
        let t = seg.add_block(vec![Instr::Id]);
        let e = seg.add_block(vec![Instr::Fst]);
        let arm = seg.add_block(vec![Instr::Snd]);
        let entry = seg.add_block(vec![
            Instr::Branch(t, e),
            Instr::Switch(Rc::new(SwitchTable {
                arms: vec![SwitchArm {
                    tag: 4,
                    bind: true,
                    code: arm,
                }],
                default: None,
            })),
        ]);
        let text = disassemble(&seg, entry);
        assert!(text.contains("branch L1 else L2"), "{text}");
        assert!(text.contains("switch { tag 4 (bind) => L3 }"), "{text}");
    }
}
