//! The CCAM simulator: configurations `⟨S, P⟩` and the transition relation
//! of Figure 3 (plus the documented extensions).
//!
//! Code is executed from flat [`CodeSeg`] segments: a control-stack frame
//! is a `(segment, block, pc)` triple, and the dispatch loop walks the
//! block's contiguous instruction range directly — one borrow of the
//! segment per frame activation, **zero reference-count traffic per
//! instruction**. Instructions that transfer control or append frozen
//! blocks to a segment (application, branching, `call`, the merge family)
//! leave the fast path; everything else executes inline over the borrowed
//! slice. One executed instruction is one **reduction step** — the unit
//! reported in the paper's Table 1.
//!
//! # Backend layer
//!
//! Each opcode's semantics is a standalone step function over a shared
//! `state::MachineState`, grouped by family: `core` (CAM ops,
//! constants, staging, primitives), `env` (environment projections and
//! `env_cons`), `fused` (straight-line superinstructions), and
//! `transfer` (control transfers over the whole machine). The forms
//! only promotion makes that take a binary primitive's operands apart
//! (`cons_prim`, `prim_int`) sit in `core` beside `prim`, whose
//! arithmetic they share. The interpreter is one exhaustive `match` on
//! [`Instr`] that calls those functions directly.

pub(crate) mod core;
pub(crate) mod env;
pub(crate) mod fused;
pub(crate) mod state;
pub(crate) mod transfer;

#[cfg(test)]
mod tests;

use crate::instr::{Instr, OPCODE_COUNT};
use crate::opt::Charges;
use crate::seg::{BlockId, CodeRef, CodeSeg, TierProbe};
use crate::value::{Arena, Value};
use state::MachineState;
use std::fmt;
use std::rc::Rc;

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// An instruction needed more stack entries than were present.
    StackUnderflow {
        /// The instruction's mnemonic.
        instr: &'static str,
    },
    /// The top of the stack had the wrong shape for the instruction.
    TypeMismatch {
        /// The instruction's mnemonic.
        instr: &'static str,
        /// What the instruction needed.
        expected: &'static str,
        /// A rendering of what it found.
        found: String,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// Attempted index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// `array (n, _)` with a negative `n`, or one too large to allocate.
    ArraySize {
        /// The requested length.
        len: i64,
    },
    /// A `fail` instruction ran (inexhaustive match).
    Fail(String),
    /// `switch` found no matching arm and no default.
    NoMatchingArm {
        /// The scrutinee's tag.
        tag: u32,
    },
    /// The step budget was exhausted.
    OutOfFuel {
        /// The budget that was exceeded.
        fuel: u64,
    },
    /// `=` was applied to values without structural equality (closures,
    /// arenas).
    EqualityUndefined,
    /// Code ran a block its segment no longer has: a value that escaped
    /// the session (or decoded artifact) owning its segment was run after
    /// the owner tore the segment down ([`CodeSeg::tear_down`]).
    DanglingBlock {
        /// The block's id.
        block: u32,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::StackUnderflow { instr } => {
                write!(f, "stack underflow executing `{instr}`")
            }
            MachineError::TypeMismatch {
                instr,
                expected,
                found,
            } => write!(f, "`{instr}` expected {expected}, found {found}"),
            MachineError::DivideByZero => f.write_str("integer division by zero"),
            MachineError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            MachineError::ArraySize { len } => {
                write!(f, "array size {len} cannot be allocated")
            }
            MachineError::Fail(m) => write!(f, "failure: {m}"),
            MachineError::NoMatchingArm { tag } => {
                write!(f, "no switch arm matches constructor tag {tag}")
            }
            MachineError::OutOfFuel { fuel } => {
                write!(f, "reduction budget of {fuel} steps exhausted")
            }
            MachineError::EqualityUndefined => {
                f.write_str("equality is not defined on functions or code")
            }
            MachineError::DanglingBlock { block } => write!(
                f,
                "block L{block} was torn down with the session or artifact that owned it"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// SML `div`: floor division, rounding toward negative infinity
/// (`~7 div 2 = ~4`), unlike Rust's truncating `/`. The divisor must be
/// nonzero; `i64::MIN div -1` wraps like the other arithmetic primitives.
pub fn floor_div(x: i64, y: i64) -> i64 {
    let q = x.wrapping_div(y);
    if x.wrapping_rem(y) != 0 && (x < 0) != (y < 0) {
        q.wrapping_sub(1)
    } else {
        q
    }
}

/// SML `mod`: the remainder matching [`floor_div`], taking the divisor's
/// sign (`~7 mod 2 = 1`), unlike Rust's truncating `%`. The divisor must
/// be nonzero.
pub fn floor_mod(x: i64, y: i64) -> i64 {
    let r = x.wrapping_rem(y);
    if r != 0 && (r < 0) != (y < 0) {
        r.wrapping_add(y)
    } else {
        r
    }
}

/// Execution statistics, the paper's measurement surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Reduction steps (instructions executed) — Table 1's unit.
    pub steps: u64,
    /// Instructions appended to arenas (`emit`, `lift`, and the merge
    /// family each count the instructions they append).
    pub emitted: u64,
    /// Arenas created by `arena`.
    pub arenas: u64,
    /// `call` transfers into generated code.
    pub calls: u64,
    /// Arena freezes that materialized code (cache misses). Each miss
    /// copies the arena into a new block.
    pub freezes: u64,
    /// Arena freezes served from the cached snapshot.
    pub freeze_hits: u64,
    /// High-water mark of the value stack.
    pub max_stack: usize,
    /// Blocks promoted by the tier controller (see [`PROMOTE_AFTER`]).
    pub promotions: u64,
    /// Freeze misses that re-rendered an arena which had already been
    /// frozen (the arena grew in between). The old
    /// snapshot — and any tier state attached to its block — stays
    /// valid; the new rendering starts cold.
    pub refreezes: u64,
    /// Paper reduction steps executed at each tier (0 cold, 1
    /// promoted). Always sums to `steps`.
    pub tier_steps: [u64; 2],
}

impl Stats {
    /// The change since an earlier snapshot of the same machine's stats
    /// (`max_stack` is a high-water mark, not a delta, and is carried
    /// over).
    #[must_use]
    pub fn delta_since(&self, before: &Stats) -> Stats {
        Stats {
            steps: self.steps - before.steps,
            emitted: self.emitted - before.emitted,
            arenas: self.arenas - before.arenas,
            calls: self.calls - before.calls,
            freezes: self.freezes - before.freezes,
            freeze_hits: self.freeze_hits - before.freeze_hits,
            max_stack: self.max_stack,
            promotions: self.promotions - before.promotions,
            refreezes: self.refreezes - before.refreezes,
            tier_steps: [
                self.tier_steps[0] - before.tier_steps[0],
                self.tier_steps[1] - before.tier_steps[1],
            ],
        }
    }
}

/// One control-stack frame: a block of a segment plus the next
/// instruction index within it.
#[derive(Debug, Clone)]
struct Frame {
    seg: CodeSeg,
    block: BlockId,
    pc: usize,
}

/// The CCAM.
///
/// A machine owns mutable execution state (value stack, control stack,
/// statistics, print-output buffer) and can run many programs in
/// sequence; statistics accumulate until [`Machine::reset_stats`].
///
/// # Examples
///
/// ```
/// use ccam::instr::{Instr, PrimOp};
/// use ccam::machine::Machine;
/// use ccam::seg::CodeSeg;
/// use ccam::value::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Compute (3, 4) |-> 3 + 4.
/// let seg = CodeSeg::new();
/// let code = seg.entry(vec![Instr::Prim(PrimOp::Add)]);
/// let mut m = Machine::new();
/// let out = m.run(code, Value::pair(Value::Int(3), Value::Int(4)))?;
/// assert!(matches!(out, Value::Int(7)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Value stack, statistics, fuel, and output — everything the
    /// straight-line step functions operate on.
    state: MachineState,
    control: Vec<Frame>,
    trace: Option<Trace>,
    /// Activations a block runs cold before the tier controller promotes
    /// it: [`PROMOTE_AFTER`] unless [`Machine::set_promote_after`] said
    /// otherwise.
    promote_after: u64,
    /// Dynamic opcode-pair frequency profile, when enabled by
    /// [`Machine::set_profile_pairs`]. Boxed: the table is
    /// `OPCODE_COUNT²` counters, too large to live inline in every
    /// machine.
    pair_profile: Option<Box<PairCounts>>,
}

/// Activations a block runs cold before the tier controller promotes it
/// (DESIGN.md §15): the block is re-rendered by [`crate::opt::render`]
/// (the §4.2 peephole, then fusion) at its next activation. Chosen by a
/// measured sweep over 256, 1024 and 4096 (EXPERIMENTS.md E23): lower
/// thresholds make short-lived sessions and churned tenants pay for
/// renderings they barely run (at 256 the churn workload's peak memory
/// rose by a tenth), higher ones leave hot code cold for longer.
pub const PROMOTE_AFTER: u64 = 1024;

/// One straight-line dispatch run: a frame activation's instructions up
/// to where it stops, at a transfer, an error or the block's end.
struct Run<'a> {
    /// Whether [`Machine::account`] counts each step (see
    /// [`Machine::observed`]); if not, the run is counted once.
    observed: bool,
    /// The instruction the run started at.
    from: usize,
    /// The promoted rendering's charges, or `None` for a cold block.
    charges: Option<&'a Charges>,
    /// The tier the run's steps are attributed to.
    tier: usize,
}

/// An opcode-pair frequency table: `counts[a][b]` is how many times
/// opcode `b` executed immediately after opcode `a` within one
/// straight-line dispatch run (control transfers reset the chain). This
/// is the dynamic profile that justifies the fused opcodes of the
/// superinstruction layer (DESIGN.md §11).
pub type PairCounts = [[u64; OPCODE_COUNT]; OPCODE_COUNT];

/// One recorded execution position: which block of the running segment,
/// the instruction index within it, and the instruction's mnemonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Block index of the executing frame.
    pub block: u32,
    /// Instruction index within the block.
    pub pc: usize,
    /// The executed instruction's mnemonic.
    pub mnemonic: &'static str,
}

/// A bounded execution trace: the `(block, pc, mnemonic)` of the first
/// `limit` executed instructions.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Executed instructions, in order.
    pub entries: Vec<TraceEntry>,
    /// Maximum number of entries recorded.
    pub limit: usize,
}

impl Trace {
    /// Just the mnemonics, in execution order.
    pub fn mnemonics(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.mnemonic).collect()
    }
}

/// Fuel units one instruction charges: the number of unfused pair-spine
/// reduction steps it stands for. `Acc(n)` replaces `fst^n; snd`, each
/// fused superinstruction replaces the pair it covers, and `env_cons`
/// replaces exactly one `cons`. Keeping fuel in these units makes a fuel
/// budget exhaust at the same point in every execution mode — the cost
/// model the budget was set against is the paper's, not whichever
/// dispatch encoding happens to run.
///
/// Promoted code charges its [`Charges`] record instead, so the forms
/// only promotion makes count here only when run as cold code: `prim_int
/// op k` as `push; quote k; cons; prim op`, and `enter L` as the `app`
/// it ends with.
pub(crate) fn fuel_cost(i: &Instr) -> u64 {
    match i {
        Instr::Acc(n) => *n as u64 + 1,
        Instr::PushAcc(n) | Instr::AccApp(n) => *n as u64 + 2,
        Instr::QuoteCons(_)
        | Instr::SwapCons
        | Instr::ConsApp
        | Instr::PushQuote(_)
        | Instr::ConsPrim(_)
        | Instr::ConsBranch(_, _) => 2,
        Instr::PrimInt(_, _) => 4,
        _ => 1,
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// A fresh machine with no step budget.
    pub fn new() -> Self {
        Machine {
            state: MachineState::default(),
            control: Vec::new(),
            trace: None,
            promote_after: PROMOTE_AFTER,
            pair_profile: None,
        }
    }

    /// A machine that aborts with [`MachineError::OutOfFuel`] after
    /// `fuel` reduction steps.
    pub fn with_fuel(fuel: u64) -> Self {
        let mut m = Machine::new();
        m.state.fuel = Some(fuel);
        m
    }

    /// Sets the tier controller's threshold: activations a block runs
    /// cold before promotion ([`PROMOTE_AFTER`] by default). `0`
    /// promotes every block at its first activation, and `u64::MAX`
    /// turns the tier controller off — the Paper reference that step and
    /// fuel parity are checked against: such a machine neither counts
    /// activations nor follows a promotion another machine recorded on
    /// the segment, so it always runs cold code. (Activation counts
    /// saturate at `u32::MAX`, so any other threshold above that never
    /// promotes itself, but still follows recorded promotions.)
    /// Promotion is invisible to every observable: verdicts, step counts,
    /// fuel, and output are identical to the cold execution at every
    /// promotion point, since each rendered instruction charges the Paper
    /// steps of the cold instructions it stands for, in either
    /// environment mode.
    ///
    /// Promotion is suppressed while a trace or the pair profile is
    /// recording ([`Machine::set_trace`], [`Machine::set_profile_pairs`]):
    /// a fused rendering has a different `(block, pc, mnemonic)` shape
    /// and different opcode pairs, and both are defined to observe the
    /// cold rendering.
    pub fn set_promote_after(&mut self, promote_after: u64) {
        self.promote_after = promote_after;
    }

    /// Enables or disables dynamic opcode-pair profiling (surfaced
    /// through [`Machine::pair_profile`]). Enabling zeroes any previous
    /// counts.
    pub fn set_profile_pairs(&mut self, on: bool) {
        self.pair_profile = on.then(|| Box::new([[0u64; OPCODE_COUNT]; OPCODE_COUNT]));
    }

    /// The opcode-pair frequency table, if profiling is enabled.
    pub fn pair_profile(&self) -> Option<&PairCounts> {
        self.pair_profile.as_deref()
    }

    /// Freezes an arena. Served from the arena's snapshot cache whenever
    /// the arena has not grown since its previous freeze, so
    /// specialize-once / run-many programs copy the code once.
    fn freeze(&mut self, arena: &Arena) -> CodeRef {
        let stale = arena.snapshot_len().is_some_and(|l| l != arena.len());
        let (code, hit) = arena.freeze_cached();
        if hit {
            self.state.stats.freeze_hits += 1;
        } else {
            self.state.stats.freezes += 1;
            if stale {
                // The arena grew since its last freeze. The old snapshot
                // block — and any tier state the tier controller
                // attached to it — stays valid; the replacement is a
                // fresh block that starts cold.
                self.state.stats.refreezes += 1;
            }
        }
        code
    }

    /// Records the `(block, pc, mnemonic)` of the first `limit` executed
    /// instructions (for debugging and tests). Replaces any existing
    /// trace.
    pub fn set_trace(&mut self, limit: usize) {
        self.trace = Some(Trace {
            entries: Vec::new(),
            limit,
        });
    }

    /// The current trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> Stats {
        self.state.stats
    }

    /// Replaces the accumulated statistics, so a machine can continue
    /// the account of another (a session copied from a prelude image
    /// reports the image's statistics from its first instruction on).
    pub fn set_stats(&mut self, stats: Stats) {
        self.state.stats = stats;
    }

    /// Clears accumulated statistics (the output buffer is kept).
    pub fn reset_stats(&mut self) {
        self.state.stats = Stats::default();
        self.state.fuel_spent = 0;
    }

    /// Everything printed by `print` so far.
    pub fn output(&self) -> &str {
        &self.state.output
    }

    /// Clears the output buffer.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.state.output)
    }

    /// Runs `code` with `input` as the initial top of stack, returning the
    /// final top of stack.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on dynamic failure; the machine's stack
    /// and control are cleared, but statistics and output are kept.
    pub fn run(&mut self, code: CodeRef, input: Value) -> Result<Value, MachineError> {
        self.state.stack.clear();
        self.control.clear();
        self.state.stack.push(input);
        self.control.push(Frame {
            seg: code.seg,
            block: code.block,
            pc: 0,
        });
        self.state.fuel_spent = 0;
        let result = self.steps_loop();
        if result.is_err() {
            self.state.stack.clear();
            self.control.clear();
        }
        result
    }

    /// Per-instruction accounting: the opcode-pair profile chain, the
    /// bounded trace, the step counter, and the fuel check — with a step
    /// that exhausts the budget counted but not executed. Runs only when
    /// [`Machine::observed`]; otherwise the loop counts each
    /// straight-line run once, with [`Machine::count_run`].
    ///
    /// `costs` are the fuel costs of the Paper instructions this
    /// dispatch stands for, one step each: a cold instruction's own, or
    /// a promoted instruction's [`Charges`] record (so a folded or fused
    /// dispatch reports exactly the steps of its cold instructions, and a
    /// budget that runs out among them aborts at the same step). `tier`
    /// attributes the charge in [`Stats::tier_steps`].
    ///
    /// Kept out of line: inlined into `steps_loop` it crowds
    /// the unobserved path, which every benchmark workload runs.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn account(
        &mut self,
        block: BlockId,
        pc: usize,
        opcode: usize,
        mnemonic: &'static str,
        costs: &[u64],
        tier: usize,
        prev_op: &mut Option<usize>,
    ) -> Result<(), MachineError> {
        if let Some(hist) = &mut self.pair_profile {
            if let Some(p) = *prev_op {
                hist[p][opcode] += 1;
            }
            *prev_op = Some(opcode);
        }
        if let Some(trace) = &mut self.trace {
            if trace.entries.len() < trace.limit {
                trace.entries.push(TraceEntry {
                    block: block.0,
                    pc,
                    mnemonic,
                });
            }
        }
        let mut charge = costs.len() as u64;
        let mut exhausted = None;
        if let Some(fuel) = self.state.fuel {
            let left = fuel.saturating_sub(self.state.fuel_spent);
            self.state.fuel_spent += costs.iter().sum::<u64>();
            if self.state.fuel_spent > fuel {
                // A promoted dispatch can straddle the budget boundary;
                // count only the Paper steps up to the one that exhausts
                // it (included), so exhaustion is observationally
                // identical at every tier.
                let mut spent = 0;
                if let Some(i) = costs.iter().position(|c| {
                    spent += c;
                    spent > left
                }) {
                    charge = i as u64 + 1;
                }
                exhausted = Some(fuel);
            }
        }
        self.count_step(charge, tier);
        match exhausted {
            Some(fuel) => Err(MachineError::OutOfFuel { fuel }),
            None => Ok(()),
        }
    }

    /// Counts `charge` Paper steps, attributed to `tier`.
    #[inline]
    fn count_step(&mut self, charge: u64, tier: usize) {
        self.state.stats.steps += charge;
        self.state.stats.tier_steps[tier] += charge;
    }

    /// Counts `run` up to (not including) instruction `to` in one
    /// charge: `to - run.from` steps in a cold block, or what the run's
    /// instructions stand for in a promoted rendering. Does nothing on an
    /// observed run: [`Machine::account`] has counted every step.
    #[inline]
    fn count_run(&mut self, run: &Run<'_>, to: usize) {
        if !run.observed {
            let from = run.from;
            let steps = run
                .charges
                .map_or((to - from) as u64, |c| c.steps_between(from, to));
            self.count_step(steps, run.tier);
        }
    }

    /// Whether anything observes individual steps: a trace, the pair
    /// profile, or a fuel budget. When nothing does, counting the steps is
    /// all [`Machine::account`] would do, so the loop counts each
    /// straight-line run once instead. No step or transfer function
    /// touches this configuration, so it is decided once per run
    /// (DESIGN.md §13.6).
    fn observed(&self) -> bool {
        self.trace.is_some() || self.pair_profile.is_some() || self.state.fuel.is_some()
    }

    /// Ends `run` at a transfer: counts it, then saves the running
    /// frame's `pc`, or pops the frame when the transfer is the block's
    /// last instruction (`pc == len`): a tail transfer's frame has
    /// nothing left to run, and keeping it until the callee returns would
    /// grow the control stack on every iteration of a tail-recursive
    /// loop.
    fn leave_for_transfer(&mut self, run: &Run<'_>, pc: usize, len: usize) {
        self.count_run(run, pc);
        if pc == len {
            self.control.pop();
        } else {
            self.control.last_mut().expect("frame present mid-block").pc = pc;
        }
    }

    fn steps_loop(&mut self) -> Result<Value, MachineError> {
        let observed = self.observed();
        'frames: loop {
            // Resolve the top frame once: clone the segment handle (one
            // Rc bump per frame activation, not per step), look up the
            // block's range, and borrow the segment's instruction vector
            // for the whole dispatch run.
            let (seg, block, mut pc) = match self.control.last() {
                None => {
                    return self
                        .state
                        .stack
                        .pop()
                        .ok_or(MachineError::StackUnderflow { instr: "halt" });
                }
                Some(frame) => (frame.seg.clone(), frame.block, frame.pc),
            };
            // The tier controller hooks every frame activation: a fresh
            // activation (pc == 0) counts toward, redirects to, or
            // performs the block's promotion; a mid-frame re-activation
            // just recovers the tier the frame already runs at.
            let (block, charges) = self.tier_activate(&seg, block, pc);
            let charges = charges.as_deref();
            let Some((start, len)) = seg.block_bounds(block) else {
                return Err(MachineError::DanglingBlock { block: block.0 });
            };
            let instrs = seg.borrow_instrs();
            // An unobserved run is counted once, from where it starts to
            // where it stops: before a transfer, before a step's error is
            // returned, or at the block's end. `pc` moves past an
            // instruction before it runs, so a failing step is counted.
            let run = Run {
                observed,
                from: pc,
                charges,
                tier: usize::from(charges.is_some()),
            };
            // Opcode-pair chain for the dynamic profile: adjacency is
            // only meaningful within one straight-line run, so the chain
            // restarts at every frame activation.
            let mut prev_op: Option<usize> = None;
            let transferred = 'run: {
                while pc < len {
                    let instr = &instrs[start + pc];
                    if observed {
                        let own = [fuel_cost(instr)];
                        let costs = charges.map_or(&own[..], |c| c.costs(pc));
                        self.account(
                            block,
                            pc,
                            instr.opcode(),
                            instr.mnemonic(),
                            costs,
                            run.tier,
                            &mut prev_op,
                        )?;
                    }
                    pc += 1;
                    // A straight-line step appends to no segment's
                    // instruction vector (`emit` and `lift` push to an
                    // arena's staging buffer) and touches no frame, so it
                    // runs under the block's borrow.
                    let st = &mut self.state;
                    let done = match instr {
                        Instr::Id => core::id(st),
                        Instr::Fst => env::fst(st),
                        Instr::Snd => env::snd(st),
                        Instr::Acc(n) => env::acc(st, *n),
                        Instr::Push => core::push(st),
                        Instr::Swap => core::swap(st),
                        Instr::ConsPair => core::cons_pair(st),
                        Instr::Quote(v) => core::quote(st, v),
                        Instr::Cur(body) => core::cur(st, &seg, *body),
                        Instr::Emit(inner) => core::emit(st, &seg, inner),
                        Instr::LiftV => core::lift(st),
                        Instr::NewArena => core::new_arena(st, &seg),
                        Instr::RecClos(bodies) => core::rec_clos(st, &seg, bodies),
                        Instr::Pack(tag) => core::pack(st, *tag),
                        Instr::Prim(op) => core::prim(st, *op),
                        Instr::Fail(msg) => core::fail(msg),
                        Instr::PushAcc(n) => fused::push_acc(st, *n),
                        Instr::QuoteCons(v) => fused::quote_cons(st, v),
                        Instr::SwapCons => fused::swap_cons(st),
                        Instr::PushQuote(v) => fused::push_quote(st, v),
                        Instr::EnvCons => env::env_cons(st),
                        Instr::ConsPrim(op) => core::cons_prim(st, *op),
                        Instr::PrimInt(op, k) => core::prim_int(st, *op, *k),
                        // Transfers push frames or freeze arenas into a
                        // segment: each takes its operands out of the
                        // block, releases the borrow, counts the run,
                        // and saves the pc (or pops the frame) first.
                        Instr::App => {
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::app(self);
                        }
                        Instr::ConsApp => {
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::cons_app(self);
                        }
                        Instr::AccApp(n) => {
                            let n = *n;
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::acc_app(self, n);
                        }
                        Instr::Call => {
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::call(self);
                        }
                        Instr::Branch(then_b, else_b) => {
                            let (then_b, else_b) = (*then_b, *else_b);
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::branch(self, &seg, then_b, else_b);
                        }
                        Instr::ConsBranch(then_b, else_b) => {
                            let (then_b, else_b) = (*then_b, *else_b);
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::cons_branch(self, &seg, then_b, else_b);
                        }
                        Instr::Enter(body) => {
                            let body = *body;
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::enter(self, &seg, body);
                        }
                        Instr::Switch(table) => {
                            let table = table.clone();
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::switch(self, &seg, &table);
                        }
                        Instr::Merge => {
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::merge(self);
                        }
                        Instr::MergeBranch => {
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::merge_branch(self);
                        }
                        Instr::MergeSwitch(spec) => {
                            let spec = spec.clone();
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::merge_switch(self, &spec);
                        }
                        Instr::MergeRec(n) => {
                            let n = *n;
                            drop(instrs);
                            self.leave_for_transfer(&run, pc, len);
                            break 'run transfer::merge_rec(self, n);
                        }
                    };
                    if let Err(e) = done {
                        self.count_run(&run, pc);
                        return Err(e);
                    }
                    self.state.note_stack_depth();
                }
                // Block exhausted: return to the caller's frame.
                drop(instrs);
                self.count_run(&run, pc);
                self.control.pop();
                continue 'frames;
            };
            transferred?;
            self.state.note_stack_depth();
        }
    }

    /// The tier controller's frame-activation hook: counts one
    /// activation of `block`, redirects to its promoted rendering if one
    /// exists, and performs the promotion itself when the block's own
    /// activation count crosses the threshold. Returns the block
    /// to execute and, for a promoted rendering, its record.
    ///
    /// Promotion happens only at `pc == 0` — return frames carry pcs
    /// into the rendering they started in, so a frame is never switched
    /// mid-flight — and renderings are appended, never replaced: the
    /// cold block stays valid for frames already inside it, and a
    /// block's tier only rises.
    fn tier_activate(
        &mut self,
        seg: &CodeSeg,
        block: BlockId,
        pc: usize,
    ) -> (BlockId, Option<Rc<Charges>>) {
        if self.promote_after == u64::MAX || self.trace.is_some() || self.pair_profile.is_some() {
            // The Paper reference, a trace and the pair profile all run
            // the cold rendering, whatever the segment has promoted; see
            // `set_promote_after`.
            return (block, None);
        }
        if pc > 0 {
            // Mid-frame re-activation (a nested call returned): the
            // frame already runs the rendering its pc indexes into.
            return (block, seg.charges(block));
        }
        match seg.tier_probe(block) {
            TierProbe::Promoted(promoted, charges) => {
                self.redirect_frame(promoted);
                return (promoted, charges);
            }
            TierProbe::Cold(execs) => {
                if execs < self.promote_after {
                    return (block, None);
                }
            }
        }
        if seg.block_bounds(block).is_none() {
            // A block of a torn-down segment: `steps_loop` reports it.
            return (block, None);
        }
        self.state.stats.promotions += 1;
        let Some((code, charges)) = crate::opt::render(seg, &seg.block_to_vec(block)) else {
            // With nothing to rewrite the decision is still recorded (so
            // it is not re-made every activation), but the block keeps
            // running cold.
            seg.tier_promote(block, block, None);
            return (block, None);
        };
        let promoted = seg.add_block(code);
        let charges = Rc::new(charges);
        seg.tier_promote(block, promoted, Some(charges.clone()));
        self.redirect_frame(promoted);
        (promoted, Some(charges))
    }

    /// Points the top frame — known to be at a fresh activation — at
    /// `promoted`.
    fn redirect_frame(&mut self, promoted: BlockId) {
        let frame = self
            .control
            .last_mut()
            .expect("frame present at activation");
        debug_assert_eq!(frame.pc, 0, "redirect only at a fresh activation");
        frame.block = promoted;
    }

    fn enter(&mut self, code: CodeRef) {
        self.control.push(Frame {
            seg: code.seg,
            block: code.block,
            pc: 0,
        });
    }
}
