//! Compilation contexts: the variable environment layout and the
//! early/late division used by the generating translation.
//!
//! The CAM environment is a left-nested pair spine: binding `x` turns the
//! environment `E` into the value `(E, x)`. A variable's access path is
//! therefore `fst^k; snd`. Under `code`, the layout becomes **staged**:
//! the generating extension for a nested `code` captures the *generation
//! time* environment and is applied (at the outer stage's run time) to the
//! outer stage's environment, so the inner stage sees the pair
//! `(early_env, stage_env)` — see DESIGN.md §3.2 and the paper's
//! closure-insertion technique (§5).

use ccam::instr::Instr;
use mlbox_ir::name::Name;
use std::rc::Rc;

/// Whether a context entry is an ordinary value variable (Γ) or a code
/// variable (Δ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Value variable.
    Val,
    /// Code variable.
    Cogen,
}

/// How variable accesses are compiled against the environment.
///
/// [`PairSpine`](EnvMode::PairSpine) is the paper's model: a left-nested
/// pair spine walked by `fst^k; snd` chains. [`Flat`](EnvMode::Flat)
/// changes the representation: bindings extend contiguous frames
/// ([`ccam::value::Frame`]) via [`Instr::EnvCons`], and each walk
/// compiles to one `acc n`, a bounds-checked slot index instead of an
/// O(n) spine walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvMode {
    /// The paper's access sequences: `fst^k; snd` chains, one reduction
    /// step per link. This is the default — Table 1's reduction-step
    /// counts are measured in this mode.
    #[default]
    PairSpine,
    /// Flat frames: each walk compiles to a single [`Instr::Acc`]
    /// dispatch (`acc n` ≡ `fst^n; snd`; the machine resolves it against
    /// frames and pairs alike), and environment-extension sites compile
    /// to [`Instr::EnvCons`], so the environment grows as a `Vec`-backed
    /// frame and each access is O(1). Cheaper on deep environments, but
    /// no longer step-for-step comparable with the paper's cost model.
    Flat,
}

/// How the *early* (generation-time) environment value is shaped, for
/// entries `0..early_count`.
#[derive(Debug, Clone)]
pub enum Layout {
    /// A plain left-nested spine of `count` entries over an opaque base.
    Spine {
        /// Number of entries the spine covers.
        count: usize,
    },
    /// The environment is `(early_env, stage_env)`: `early_env` is shaped
    /// by the inner layout and covers entries `0..split`; `stage_env` is a
    /// spine covering entries `split..count` (over an opaque base).
    Staged {
        /// Layout of the first component.
        early: Rc<Layout>,
        /// Entries covered by the first component.
        split: usize,
        /// Total entries covered.
        count: usize,
    },
}

impl Layout {
    /// Access path (as instructions) for entry `index` within an
    /// environment value of this layout, in the given access mode. This is
    /// the single source of truth for access-path compilation: both the
    /// ordinary and the generating translation obtain every variable
    /// access from here (via [`Ctx::early_path`] / [`Ctx::late_path`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not covered by the layout.
    pub fn path(&self, index: usize, mode: EnvMode) -> Vec<Instr> {
        let mut out = Vec::new();
        self.path_into(index, mode, &mut out);
        out
    }

    fn path_into(&self, index: usize, mode: EnvMode, out: &mut Vec<Instr>) {
        match mode {
            EnvMode::PairSpine => self.spine_path_into(index, out),
            EnvMode::Flat => self.acc_path_into(index, 0, out),
        }
    }

    fn spine_path_into(&self, index: usize, out: &mut Vec<Instr>) {
        match self {
            Layout::Spine { count } => {
                assert!(index < *count, "entry {index} outside spine of {count}");
                for _ in 0..(count - 1 - index) {
                    out.push(Instr::Fst);
                }
                out.push(Instr::Snd);
            }
            Layout::Staged {
                early,
                split,
                count,
            } => {
                if index >= *split {
                    assert!(index < *count, "entry {index} outside staged layout");
                    out.push(Instr::Snd);
                    for _ in 0..(count - 1 - index) {
                        out.push(Instr::Fst);
                    }
                    out.push(Instr::Snd);
                } else {
                    out.push(Instr::Fst);
                    early.spine_path_into(index, out);
                }
            }
        }
    }

    /// The fused `acc` rendering of the same walk. `pending` counts `fst`s
    /// owed by enclosing `Staged` layouts (descents into the early
    /// component); since `acc n` ≡ `fst^n; snd`, they fuse into the next
    /// `acc` instead of being emitted separately.
    fn acc_path_into(&self, index: usize, pending: usize, out: &mut Vec<Instr>) {
        match self {
            Layout::Spine { count } => {
                assert!(index < *count, "entry {index} outside spine of {count}");
                out.push(Instr::Acc(pending + count - 1 - index));
            }
            Layout::Staged {
                early,
                split,
                count,
            } => {
                if index >= *split {
                    assert!(index < *count, "entry {index} outside staged layout");
                    // fst^pending; snd reaches the stage environment, then
                    // one more fused walk reaches the entry.
                    out.push(Instr::Acc(pending));
                    out.push(Instr::Acc(count - 1 - index));
                } else {
                    early.acc_path_into(index, pending + 1, out);
                }
            }
        }
    }

    /// Path from a value of this layout to its opaque *base*: walk past
    /// every entry of the spine (`fst^count`). The generating translation
    /// uses this to project `lenv` out of the generation state, whose
    /// stack shape is itself a left-nested spine over `lenv`. There is no
    /// trailing `snd`, so the walk has no fused rendering.
    ///
    /// # Panics
    ///
    /// Panics on a [`Layout::Staged`] layout, which has no spine base.
    pub fn base_path_into(&self, out: &mut Vec<Instr>) {
        match self {
            Layout::Spine { count } => {
                for _ in 0..*count {
                    out.push(Instr::Fst);
                }
            }
            Layout::Staged { .. } => panic!("a staged layout has no spine base"),
        }
    }

    /// Number of entries covered.
    pub fn count(&self) -> usize {
        match self {
            Layout::Spine { count } => *count,
            Layout::Staged { count, .. } => *count,
        }
    }
}

/// A compilation context: the variables in scope (oldest first), the
/// early/late division, and the layout of the early environment.
#[derive(Debug, Clone)]
pub struct Ctx {
    entries: Vec<(Name, Kind)>,
    /// Entries `0..division` are *early* (available at generation time);
    /// the rest are *late*. For ordinary (non-generating) compilation,
    /// `division == entries.len()`.
    division: usize,
    /// Layout of the early environment value (covers `0..division`).
    layout: Rc<Layout>,
    /// How access paths are rendered ([`EnvMode::PairSpine`] by default).
    mode: EnvMode,
}

impl Ctx {
    /// The empty top-level context, in the default pair-spine access mode.
    pub fn root() -> Ctx {
        Ctx::root_with(EnvMode::default())
    }

    /// The empty top-level context with an explicit access mode.
    pub fn root_with(mode: EnvMode) -> Ctx {
        Ctx {
            entries: Vec::new(),
            division: 0,
            layout: Rc::new(Layout::Spine { count: 0 }),
            mode,
        }
    }

    /// The access mode this context compiles with.
    pub fn mode(&self) -> EnvMode {
        self.mode
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The early/late division point.
    pub fn division(&self) -> usize {
        self.division
    }

    /// Extends with a binding (late if past the division, i.e. always for
    /// generating compilation; for ordinary compilation use
    /// [`Ctx::bind_early`]).
    pub fn bind_late(&self, name: Name, kind: Kind) -> Ctx {
        let mut entries = self.entries.clone();
        entries.push((name, kind));
        Ctx {
            entries,
            division: self.division,
            layout: self.layout.clone(),
            mode: self.mode,
        }
    }

    /// Extends with an early binding. Only valid when no late bindings
    /// exist yet (ordinary compilation), since early entries must be
    /// contiguous.
    ///
    /// # Panics
    ///
    /// Panics if late bindings are already present.
    pub fn bind_early(&self, name: Name, kind: Kind) -> Ctx {
        assert_eq!(
            self.division,
            self.entries.len(),
            "cannot add an early binding under late bindings"
        );
        let mut entries = self.entries.clone();
        entries.push((name, kind));
        let division = entries.len();
        Ctx {
            entries,
            division,
            layout: Rc::new(Layout::Spine { count: division }),
            mode: self.mode,
        }
    }

    /// Enters a `code` constructor: everything currently visible becomes
    /// early, shaped per the staged layout when late bindings exist.
    pub fn enter_code(&self) -> Ctx {
        let count = self.entries.len();
        let layout = if self.division == count {
            // No late bindings — the generation-time environment is the
            // current spine.
            Rc::new(Layout::Spine { count })
        } else {
            // The inner generating extension sees (early_env, stage_env).
            Rc::new(Layout::Staged {
                early: self.layout.clone(),
                split: self.division,
                count,
            })
        };
        Ctx {
            entries: self.entries.clone(),
            division: count,
            layout,
            mode: self.mode,
        }
    }

    /// Looks up a name, returning `(index, kind)`.
    pub fn find(&self, name: &Name) -> Option<(usize, Kind)> {
        self.entries
            .iter()
            .rposition(|(n, _)| n == name)
            .map(|i| (i, self.entries[i].1))
    }

    /// Whether the entry at `index` is early.
    pub fn is_early(&self, index: usize) -> bool {
        index < self.division
    }

    /// Access path for an early entry, against the early-environment
    /// layout.
    pub fn early_path(&self, index: usize) -> Vec<Instr> {
        debug_assert!(self.is_early(index));
        self.layout.path(index, self.mode)
    }

    /// Access path for a late entry, relative to the run-time environment
    /// spine of the generated code (never crosses the division): the
    /// generated code's environment is a spine of all entries over an
    /// opaque base, and late indices stay strictly inside it.
    pub fn late_path(&self, index: usize) -> Vec<Instr> {
        debug_assert!(!self.is_early(index));
        let n = self.entries.len();
        Layout::Spine { count: n }.path(index, self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_ir::name::NameGen;

    fn fsts(path: &[Instr]) -> usize {
        path.iter().filter(|i| matches!(i, Instr::Fst)).count()
    }

    #[test]
    fn spine_paths() {
        let mut g = NameGen::new();
        let ctx = Ctx::root()
            .bind_early(g.fresh("a"), Kind::Val)
            .bind_early(g.fresh("b"), Kind::Val)
            .bind_early(g.fresh("c"), Kind::Val);
        // c (index 2, innermost): snd. a (index 0): fst;fst;snd.
        assert_eq!(ctx.early_path(2).len(), 1);
        assert_eq!(fsts(&ctx.early_path(0)), 2);
    }

    #[test]
    fn late_paths_stay_within_late_region() {
        let mut g = NameGen::new();
        let a = g.fresh("a");
        let ctx = Ctx::root()
            .bind_early(a.clone(), Kind::Val)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .bind_late(g.fresh("y"), Kind::Val);
        // y: snd; x: fst;snd — never more Fsts than the late depth.
        let (yi, _) = ctx.find(&ctx.entries[2].0.clone()).unwrap();
        assert_eq!(fsts(&ctx.late_path(yi)), 0);
        assert_eq!(fsts(&ctx.late_path(1)), 1);
    }

    #[test]
    fn staged_layout_paths() {
        let mut g = NameGen::new();
        let a = g.fresh("a");
        let ctx = Ctx::root()
            .bind_early(a.clone(), Kind::Cogen)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .enter_code();
        // Inside the inner code, all 2 entries are early.
        assert_eq!(ctx.division(), 2);
        // a: via the early side: fst; snd.
        let pa = ctx.early_path(0);
        assert!(matches!(pa[0], Instr::Fst));
        assert!(matches!(pa[1], Instr::Snd));
        // x: via the stage side: snd; snd.
        let px = ctx.early_path(1);
        assert!(matches!(px[0], Instr::Snd));
        assert!(matches!(px[1], Instr::Snd));
    }

    #[test]
    fn indexed_spine_paths_are_single_acc() {
        let mut g = NameGen::new();
        let ctx = Ctx::root_with(EnvMode::Flat)
            .bind_early(g.fresh("a"), Kind::Val)
            .bind_early(g.fresh("b"), Kind::Val)
            .bind_early(g.fresh("c"), Kind::Val);
        assert!(matches!(ctx.early_path(2)[..], [Instr::Acc(0)]));
        assert!(matches!(ctx.early_path(0)[..], [Instr::Acc(2)]));
    }

    #[test]
    fn indexed_late_paths_are_single_acc() {
        let mut g = NameGen::new();
        let ctx = Ctx::root_with(EnvMode::Flat)
            .bind_early(g.fresh("a"), Kind::Val)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .bind_late(g.fresh("y"), Kind::Val);
        assert!(matches!(ctx.late_path(2)[..], [Instr::Acc(0)]));
        assert!(matches!(ctx.late_path(1)[..], [Instr::Acc(1)]));
    }

    #[test]
    fn indexed_staged_paths_fuse_the_descent() {
        let mut g = NameGen::new();
        let ctx = Ctx::root_with(EnvMode::Flat)
            .bind_early(g.fresh("a"), Kind::Cogen)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .enter_code();
        // a, on the early side: fst; snd fuses to acc 1.
        assert!(matches!(ctx.early_path(0)[..], [Instr::Acc(1)]));
        // x, on the stage side: snd; snd renders as acc 0; acc 0.
        assert!(matches!(
            ctx.early_path(1)[..],
            [Instr::Acc(0), Instr::Acc(0)]
        ));
    }

    #[test]
    fn indexed_doubly_staged_paths_carry_pending_fsts() {
        let mut g = NameGen::new();
        let ctx = Ctx::root_with(EnvMode::Flat)
            .bind_early(g.fresh("a"), Kind::Cogen)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .enter_code()
            .bind_late(g.fresh("y"), Kind::Val)
            .enter_code();
        // x sits on the stage side of the *inner* staged layout, reached
        // through one early descent: fst; snd; snd ≡ acc 1; acc 0.
        assert!(matches!(
            ctx.early_path(1)[..],
            [Instr::Acc(1), Instr::Acc(0)]
        ));
        // In pair-spine mode the same entry costs three instructions.
        let spine = Ctx::root()
            .bind_early(g.fresh("a"), Kind::Cogen)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val)
            .enter_code()
            .bind_late(g.fresh("y"), Kind::Val)
            .enter_code();
        assert_eq!(spine.early_path(1).len(), 3);
    }

    #[test]
    fn mode_survives_binds_and_enter_code() {
        let mut g = NameGen::new();
        let ctx = Ctx::root_with(EnvMode::Flat)
            .bind_early(g.fresh("a"), Kind::Val)
            .enter_code()
            .bind_late(g.fresh("x"), Kind::Val);
        assert_eq!(ctx.mode(), EnvMode::Flat);
        assert_eq!(Ctx::root().mode(), EnvMode::PairSpine);
    }

    #[test]
    fn shadowing_finds_innermost() {
        let mut g = NameGen::new();
        let a1 = g.fresh("a");
        let a2 = g.fresh("a");
        let ctx = Ctx::root()
            .bind_early(a1.clone(), Kind::Val)
            .bind_early(a2.clone(), Kind::Val);
        assert_eq!(ctx.find(&a2).unwrap().0, 1);
        assert_eq!(ctx.find(&a1).unwrap().0, 0);
    }
}
