//! The incremental MLbox session: parse → elaborate → type check →
//! compile → run on the CCAM, one declaration at a time, with
//! per-declaration reduction-step accounting (the measurement surface of
//! the paper's Table 1).

use crate::artifact::{machine_for, CompiledFilter};
use crate::error::Error;
use crate::fingerprint::Fnv1a;
use crate::prelude::PRELUDE;
use crate::render::render_machine;
use ccam::instr::{validate, Instr};
use ccam::machine::{Machine, Stats, TierPolicy, Trace};
use ccam::portable::PortableValue;
use ccam::relocate::Relocation;
use ccam::seg::CodeSeg;
use ccam::value::Value;
use mlbox_compile::compile::{compile_decl, compile_expr, DeclEffect};
use mlbox_compile::ctx::{Ctx, EnvMode};
use mlbox_ir::core::CoreDecl;
use mlbox_ir::data::DataEnv;
use mlbox_ir::elab::Elab;
use mlbox_syntax::parser::{parse_expr, parse_program};
use mlbox_types::check::{Checker, TypeCtx};
use std::cell::RefCell;

/// Configuration for a [`Session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    /// Load the prelude (`eval`, lists, option, tables). Default: true.
    pub prelude: bool,
    /// Step budget for the machine (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Run the modal type checker before compiling. Default: true.
    pub typecheck: bool,
    /// Enable emission-time peephole optimization of generated code
    /// (§4.2's envisioned "more sophisticated specialization system").
    /// Default: false, matching the paper's measured system.
    pub optimize: bool,
    /// Count executed steps per opcode (surfaced as
    /// [`Stats::opcodes`]). Default: false — the count array is carried
    /// in every stats snapshot, so it is opt-in.
    pub count_opcodes: bool,
    /// Compile variable accesses as fused indexed lookups (`acc n`)
    /// instead of the paper's `fst^n; snd` chains. Default: false, so the
    /// reduction-step counts of Table 1 stay exactly the paper's cost
    /// model; turn on to measure the indexed representation.
    pub indexed_env: bool,
    /// Grow the environment as contiguous `Vec`-backed frames
    /// (`env_cons`) so each `acc n` is an O(1) slot load instead of a
    /// spine walk (DESIGN.md §12). Implies indexed-style access paths and
    /// wins over [`indexed_env`](SessionOptions::indexed_env) when both
    /// are set. Default: false, keeping the paper's pair-spine
    /// representation and Table 1's exact cost model.
    pub flat_env: bool,
    /// Rewrite the hottest adjacent opcode pairs into fused
    /// superinstructions (DESIGN.md §11), both in statically compiled
    /// code and — via the freeze path — in run-time generated code.
    /// Default: false, so Table 1's step counts stay the paper's cost
    /// model; turn on to measure dispatch-fused execution.
    pub fuse: bool,
    /// Run under the adaptive tier controller (DESIGN.md §15): compile
    /// and freeze everything plainly (the Paper tier), count per-block
    /// activations at run time, and promote hot blocks to fused code
    /// using each block's own measured instruction mix.
    /// Step counts, verdicts, traces, and fuel behave exactly as under
    /// the [`Paper`](ExecProfile::Paper) profile — promotion changes
    /// wall clock only. Mutually exclusive with the static
    /// `optimize`/`fuse` flags ([`Session::with_options`]
    /// rejects the combination). Default: `None` (static behavior).
    pub adaptive: Option<TierPolicy>,
}

/// The tiering regime a session executes under — the axis of
/// [`SessionOptions`] that decides *how* compiled code runs, separated
/// from the semantic axes (prelude, fuel, typecheck, env mode, opcode
/// counting). Derived by [`SessionOptions::profile`], installed by
/// [`SessionOptions::with_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecProfile {
    /// The paper's measured system: no optimizer, no fusion. The golden
    /// step-count lockfiles and the wire-format golden artifact are
    /// pinned to this profile.
    Paper,
    /// One fixed point of the 2×2 `(optimize, fuse)` flavor lattice,
    /// chosen up front for the whole session — the behavior of
    /// the pre-adaptive flag set.
    Static(ExecFlags),
    /// The run-time tier controller: every block starts on the Paper
    /// tier and is promoted per the policy once its activation count
    /// crosses `promote_after`.
    Adaptive(TierPolicy),
}

/// The static tiering flags — one point of the freeze-flavor lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecFlags {
    /// Emission-time peephole optimization.
    pub optimize: bool,
    /// Superinstruction fusion of static and frozen code.
    pub fuse: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            prelude: true,
            fuel: None,
            typecheck: true,
            optimize: false,
            count_opcodes: false,
            indexed_env: false,
            flat_env: false,
            fuse: false,
            adaptive: None,
        }
    }
}

impl SessionOptions {
    /// A stable fingerprint of every option that affects compiled code
    /// or its measured cost. Two sessions whose options fingerprint
    /// equally produce byte-identical code and step counts for the same
    /// program, so the serving layer uses this as half of its cache key
    /// (the other half fingerprints the filter program): artifacts
    /// compiled under different modes can never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bool(self.prelude);
        match self.fuel {
            Some(f) => {
                h.write_u8(1);
                h.write_u64(f);
            }
            None => h.write_u8(0),
        }
        h.write_bool(self.typecheck);
        h.write_bool(self.optimize);
        h.write_bool(self.count_opcodes);
        h.write_bool(self.indexed_env);
        h.write_bool(self.flat_env);
        h.write_bool(self.fuse);
        // The removed thread-coded tier's `native` flag, hashed as off:
        // the golden artifact's header and every store key are
        // fingerprints, so dropping the slot would change them all.
        h.write_bool(false);
        // The adaptive policy is appended *after* every pre-existing
        // field, and only when present: Paper- and Static-profile
        // fingerprints — and therefore every golden lockfile and wire
        // artifact — are byte-for-byte what they were before tiering
        // became dynamic.
        if let Some(policy) = self.adaptive {
            h.write_u8(1);
            h.write_u64(policy.promote_after);
            h.write_u64(policy.fuse_top_k as u64);
            // The removed `use_native` policy flag, hashed as off for the
            // same reason.
            h.write_bool(false);
        }
        h.finish()
    }

    /// The tiering regime these options select (see [`ExecProfile`]).
    pub fn profile(&self) -> ExecProfile {
        if let Some(policy) = self.adaptive {
            ExecProfile::Adaptive(policy)
        } else if self.optimize || self.fuse {
            ExecProfile::Static(ExecFlags {
                optimize: self.optimize,
                fuse: self.fuse,
            })
        } else {
            ExecProfile::Paper
        }
    }

    /// Default options running under `profile` — the inverse of
    /// [`profile`](SessionOptions::profile).
    pub fn with_profile(profile: ExecProfile) -> SessionOptions {
        let mut o = SessionOptions::default();
        o.set_profile(profile);
        o
    }

    /// Replaces the tiering regime, leaving the semantic options (env
    /// mode, fuel, typecheck, …) untouched.
    pub fn set_profile(&mut self, profile: ExecProfile) {
        self.optimize = false;
        self.fuse = false;
        self.adaptive = None;
        match profile {
            ExecProfile::Paper => {}
            ExecProfile::Static(f) => {
                self.optimize = f.optimize;
                self.fuse = f.fuse;
            }
            ExecProfile::Adaptive(policy) => self.adaptive = Some(policy),
        }
    }
}

/// The result of processing one declaration.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Binding name, if the declaration bound one.
    pub name: Option<String>,
    /// Rendered principal type (empty if type checking is off).
    pub ty: String,
    /// Rendered value.
    pub value: String,
    /// The raw machine value.
    pub raw: Value,
    /// Machine statistics for this declaration alone.
    pub stats: Stats,
}

/// What [`Session::check`] learned about a program without running it.
#[derive(Debug, Clone)]
pub struct Checked {
    /// `(binding name, rendered principal type)` per core declaration,
    /// in order (types are empty if type checking is off).
    pub decls: Vec<(Option<String>, String)>,
    /// Elaboration warnings (non-exhaustive and redundant matches).
    pub warnings: Vec<mlbox_syntax::diag::Diagnostic>,
}

/// An incremental MLbox evaluation session backed by the CCAM.
///
/// # Examples
///
/// ```
/// use mlbox::Session;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = Session::new()?;
/// let outcomes = session.run(
///     "fun codePower e = if e = 0 then code (fn b => 1)
///                        else let cogen p = codePower (e - 1)
///                             in code (fn b => b * (p b)) end
///      val square = eval (codePower 2);
///      square 9",
/// )?;
/// assert_eq!(outcomes.last().unwrap().value, "81");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    elab: Elab,
    checker: Checker,
    ctx: Ctx,
    env: Value,
    machine: Machine,
    /// The one code segment every declaration compiles into. Run-time
    /// generation freezes into its growable tail, so the whole session —
    /// compiled and generated code alike — is a single flat arena.
    seg: CodeSeg,
    options: SessionOptions,
}

/// Prelude images kept per thread: sessions are `Rc` graphs, so an
/// image can only be copied on the thread that built it. A handful of
/// option values covers every real caller; beyond that the oldest image
/// is dropped (and rebuilt if asked for again).
const MAX_PRELUDE_IMAGES: usize = 16;

thread_local! {
    static PRELUDE_IMAGES: RefCell<Vec<Session>> = const { RefCell::new(Vec::new()) };
}

impl Session {
    /// A session with the default options (prelude loaded, type checking
    /// on, no fuel limit).
    ///
    /// # Errors
    ///
    /// Returns an error if the prelude fails to load (a crate bug).
    pub fn new() -> Result<Session, Error> {
        Session::with_options(SessionOptions::default())
    }

    /// A session with explicit options.
    ///
    /// With `options.prelude` set, the session is a fresh copy of this
    /// thread's prelude image for exactly these options (DESIGN.md §16):
    /// the prelude is compiled and run once per thread and options value,
    /// and every later session starts from a block-for-block copy of the
    /// resulting state instead of compiling it again.
    ///
    /// # Errors
    ///
    /// Returns an error if the prelude fails to load.
    pub fn with_options(options: SessionOptions) -> Result<Session, Error> {
        if options.adaptive.is_some() && (options.optimize || options.fuse) {
            return Err(Error::Options(
                "adaptive tiering replaces the static optimize/fuse flags; \
                 clear them or drop the tier policy"
                    .to_string(),
            ));
        }
        if !options.prelude {
            return Ok(Session::bare(options));
        }
        let copy = PRELUDE_IMAGES.with(|images| {
            images
                .borrow()
                .iter()
                .find(|image| image.options == options)
                .map(Session::duplicate)
        });
        if let Some(s) = copy {
            return Ok(s);
        }
        let image = Session::prelude_image(options)?;
        let s = image.duplicate();
        PRELUDE_IMAGES.with(|images| {
            let mut images = images.borrow_mut();
            if images.len() == MAX_PRELUDE_IMAGES {
                images.remove(0);
            }
            images.push(image);
        });
        Ok(s)
    }

    /// A session with nothing loaded.
    fn bare(options: SessionOptions) -> Session {
        let env_mode = if options.flat_env {
            EnvMode::Flat
        } else if options.indexed_env {
            EnvMode::Indexed
        } else {
            EnvMode::PairSpine
        };
        Session {
            elab: Elab::new(),
            checker: Checker::new(),
            ctx: Ctx::root_with(env_mode),
            env: Value::Unit,
            machine: machine_for(&options),
            seg: CodeSeg::new(),
            options,
        }
    }

    /// The prelude image for `options`: a bare session that has run
    /// [`PRELUDE`] — the one place the prelude is ever compiled. The
    /// image itself never runs again; sessions are [`duplicate`]s of it.
    ///
    /// [`duplicate`]: Session::duplicate
    fn prelude_image(options: SessionOptions) -> Result<Session, Error> {
        let mut image = Session::bare(SessionOptions {
            prelude: false,
            ..options.clone()
        });
        image.run(PRELUDE)?;
        // The prelude's own match warnings (`nth` is partial) are not
        // the user's: drop them so no session ever reports them.
        image.elab.warnings.clear();
        assert!(
            image.checker.is_closed(),
            "prelude schemes must be closed for copies to share them"
        );
        image.options = options;
        Ok(image)
    }

    /// A copy of this session sharing no mutable state with it: the
    /// segment is copied block-for-block, the environment is rebuilt over
    /// the copy, and the machine starts with this session's statistics.
    /// The front-end state is cloned; the checker's schemes are shared,
    /// which [`Session::prelude_image`] checked is sound.
    fn duplicate(&self) -> Session {
        let mut relocation = Relocation::duplicate(&self.seg);
        let mut machine = machine_for(&self.options);
        machine.set_stats(self.machine.stats());
        Session {
            elab: self.elab.clone(),
            checker: self.checker.clone(),
            ctx: self.ctx.clone(),
            env: relocation.value(&self.env),
            machine,
            seg: relocation.seg().clone(),
            options: self.options.clone(),
        }
    }

    /// The datatype environment (for rendering values externally).
    pub fn data(&self) -> &DataEnv {
        &self.elab.data
    }

    /// The options this session was built with.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The code segment every declaration of this session compiles into
    /// and every generator freezes into (for disassembly and inspection).
    pub fn code_segment(&self) -> &CodeSeg {
        &self.seg
    }

    /// Total machine statistics accumulated over the session.
    pub fn stats(&self) -> Stats {
        self.machine.stats()
    }

    /// Zeroes the accumulated machine statistics. Bindings, code, and
    /// output are untouched — this only resets the counters, so a
    /// long-lived session (e.g. a pool worker) can take cheap
    /// per-request measurements without accumulating cross-request step
    /// counts.
    pub fn reset_stats(&mut self) {
        self.machine.reset_stats();
    }

    /// Everything `print`ed so far; clears the buffer.
    pub fn take_output(&mut self) -> String {
        self.machine.take_output()
    }

    /// Records the first `limit` executed instructions of subsequent runs
    /// as `(block, pc, mnemonic)` entries (see [`Machine::set_trace`]).
    pub fn set_trace(&mut self, limit: usize) {
        self.machine.set_trace(limit);
    }

    /// The bounded execution trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.machine.trace()
    }

    /// Records the dynamic frequency of adjacent opcode pairs on
    /// subsequent runs — the measurement behind the superinstruction
    /// selection (`table1 --profile-pairs`, DESIGN.md §11).
    pub fn set_profile_pairs(&mut self, on: bool) {
        self.machine.set_profile_pairs(on);
    }

    /// The opcode-pair histogram, if profiling was enabled.
    pub fn pair_profile(&self) -> Option<&ccam::machine::PairCounts> {
        self.machine.pair_profile()
    }

    /// Non-fatal warnings accumulated since the last call (non-exhaustive
    /// and redundant matches).
    pub fn take_warnings(&mut self) -> Vec<mlbox_syntax::diag::Diagnostic> {
        std::mem::take(&mut self.elab.warnings)
    }

    /// The constructor tag for a constructor name currently in scope
    /// (latest declaration wins), for building machine values externally.
    pub fn constructor_tag(&self, name: &str) -> Option<u32> {
        let data = &self.elab.data;
        let mut found = None;
        for (_, info) in data.datatypes() {
            for &c in &info.cons {
                if data.con(c).name == name {
                    found = Some(c.0);
                }
            }
        }
        found
    }

    fn static_err(&self, diag: mlbox_syntax::diag::Diagnostic, src: &str) -> Error {
        Error::Static {
            diag,
            src: src.to_string(),
        }
    }

    /// Parses and processes a program (a sequence of declarations),
    /// returning one [`Outcome`] per core declaration.
    ///
    /// # Errors
    ///
    /// Returns the first static or dynamic error. Already-processed
    /// declarations remain bound.
    pub fn run(&mut self, src: &str) -> Result<Vec<Outcome>, Error> {
        let program = parse_program(src).map_err(|d| self.static_err(d, src))?;
        let mut outcomes = Vec::new();
        for decl in &program.decls {
            let core_decls = self
                .elab
                .elab_decl(decl)
                .map_err(|d| self.static_err(d, src))?;
            for cd in &core_decls {
                outcomes.push(self.process_core_decl(cd, src)?);
            }
        }
        Ok(outcomes)
    }

    /// Parses, elaborates, and type checks a program against the
    /// session's bindings without compiling or running anything. The
    /// declarations are checked in copies of the session's elaborator
    /// and checker, so the session itself is unchanged: its type context
    /// never gets ahead of the code it has compiled.
    ///
    /// # Errors
    ///
    /// Returns the first static error.
    pub fn check(&self, src: &str) -> Result<Checked, Error> {
        let program = parse_program(src).map_err(|d| self.static_err(d, src))?;
        let mut elab = self.elab.clone();
        elab.warnings.clear();
        let mut checker = self.checker.clone();
        let mut decls = Vec::new();
        for decl in &program.decls {
            let core_decls = elab.elab_decl(decl).map_err(|d| self.static_err(d, src))?;
            for cd in &core_decls {
                let ty = type_of(cd, &elab, &mut checker, self.options.typecheck)
                    .map_err(|d| self.static_err(d, src))?;
                decls.push((decl_name(cd), ty));
            }
        }
        Ok(Checked {
            decls,
            warnings: elab.warnings,
        })
    }

    /// Evaluates a single expression in the current session environment.
    ///
    /// # Errors
    ///
    /// Returns the first static or dynamic error.
    pub fn eval_expr(&mut self, src: &str) -> Result<Outcome, Error> {
        let surface = parse_expr(src).map_err(|d| self.static_err(d, src))?;
        let core = self
            .elab
            .elab_expr(&surface)
            .map_err(|d| self.static_err(d, src))?;
        let decl = CoreDecl::Expr(core);
        self.process_core_decl(&decl, src)
    }

    /// Applies the superinstruction-fusion pass to statically compiled
    /// code when the session runs in fused mode. Run-time generated code
    /// is fused separately, when its arena freezes (the machine's fuse
    /// flag selects the fused freeze slot), so static and generated code
    /// execute under the same dispatch regime.
    fn finish_code(&self, code: Vec<Instr>) -> Vec<Instr> {
        if self.options.fuse {
            ccam::opt::fuse(&self.seg, &code)
        } else {
            code
        }
    }

    fn process_core_decl(&mut self, cd: &CoreDecl, src: &str) -> Result<Outcome, Error> {
        let ty = type_of(cd, &self.elab, &mut self.checker, self.options.typecheck)
            .map_err(|d| self.static_err(d, src))?;
        // Compile.
        let (code, new_ctx, effect) =
            compile_decl(cd, &self.ctx, &self.seg).map_err(|d| self.static_err(d, src))?;
        debug_assert!(
            validate(&self.seg, &code).is_ok(),
            "compiler produced nested emits"
        );
        // Run, measuring this declaration alone.
        let code = self.finish_code(code);
        let before = self.machine.stats();
        let result = self.machine.run(self.seg.entry(code), self.env.clone())?;
        let stats = self.machine.stats().delta_since(&before);
        let (name, raw) = match effect {
            DeclEffect::ExtendsEnv => {
                self.env = result;
                self.ctx = new_ctx;
                // In flat mode the declaration extends a frame, not a
                // pair; `env_snd` projects the binding from either.
                let bound = self.env.env_snd().unwrap_or_else(|| self.env.clone());
                (decl_name(cd), bound)
            }
            DeclEffect::ProducesValue => (None, result),
        };
        Ok(Outcome {
            name,
            ty,
            value: render_machine(&raw, &self.elab.data),
            raw,
            stats,
        })
    }

    /// Applies a session-bound function to a machine value, returning the
    /// result and the statistics of the call alone. This is the benchmark
    /// harness's measurement primitive.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` is not bound to a function, or the call
    /// fails.
    pub fn call(&mut self, name: &str, arg: Value) -> Result<(Value, Stats), Error> {
        let src = format!("<call {name}>");
        // Resolve through the elaborator so shadowing matches the surface
        // language, then compile a direct application.
        let surface = parse_expr(name).map_err(|d| self.static_err(d, &src))?;
        let core = self
            .elab
            .elab_expr(&surface)
            .map_err(|d| self.static_err(d, &src))?;
        let mut code = vec![Instr::Push];
        code.extend(
            compile_expr(&core, &self.ctx, &self.seg).map_err(|d| self.static_err(d, &src))?,
        );
        code.extend([Instr::Swap, Instr::Quote(arg), Instr::ConsPair, Instr::App]);
        let code = self.finish_code(code);
        let before = self.machine.stats();
        let result = self.machine.run(self.seg.entry(code), self.env.clone())?;
        let stats = self.machine.stats().delta_since(&before);
        Ok((result, stats))
    }

    /// Runs the generating extension `generator` (an expression of type
    /// `A $`) once, splices the generated code, and extracts the
    /// resulting function into a thread-shareable [`CompiledFilter`].
    /// The artifact can then be instantiated on any number of worker
    /// threads without re-running the generator. `source_fingerprint`
    /// identifies the source program the artifact was compiled from
    /// (callers pick the scheme; the BPF harness fingerprints the filter
    /// instruction sequence).
    ///
    /// Why not simply extract the value of `eval generator`? Because the
    /// `call` instruction splices generated code over the environment at
    /// the splice site, so the closure `eval` returns drags the whole
    /// session environment behind it — prelude tables, the generator
    /// itself, every `ref` and array ever bound — none of which can
    /// cross threads. This method instead re-roots the splice on a
    /// **unit** environment: the modal type discipline guarantees
    /// generated code is closed (every residualized value is a `lift`ed
    /// immediate in the instruction stream), so the artifact never needs
    /// the environment it was generated in. Were that invariant ever
    /// violated, the run fails fast with a machine error rather than
    /// miscomputing.
    ///
    /// Like [`Session::call`], the expression is compiled directly
    /// without a type-checking pass; passing a non-generator is a
    /// dynamic error.
    ///
    /// # Errors
    ///
    /// Returns a static or dynamic error from running the generator, or
    /// an [`Error::Artifact`] if the generated value is not a function
    /// or embeds mutable state (ref cells, arrays) that cannot cross
    /// threads.
    pub fn compile_to_artifact(
        &mut self,
        generator: &str,
        source_fingerprint: u64,
    ) -> Result<CompiledFilter, Error> {
        let src = format!("<artifact {generator}>");
        let surface = parse_expr(generator).map_err(|d| self.static_err(d, &src))?;
        let core = self
            .elab
            .elab_expr(&surface)
            .map_err(|d| self.static_err(d, &src))?;
        // ⟨generator, fresh arena⟩; app — run the generating extension...
        let mut code = vec![Instr::Push];
        code.extend(
            compile_expr(&core, &self.ctx, &self.seg).map_err(|d| self.static_err(d, &src))?,
        );
        code.extend([
            Instr::Swap,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::App,
            // ...then rebuild the gen state (v, arena) as (unit, arena),
            // so `call` splices the generated code over a unit
            // environment instead of v (which reaches the session env).
            Instr::Snd,
            Instr::Push,
            Instr::Quote(Value::Unit),
            Instr::Swap,
            Instr::ConsPair,
            Instr::Call,
        ]);
        let code = self.finish_code(code);
        let result = self.machine.run(self.seg.entry(code), self.env.clone())?;
        match &result {
            Value::Closure(_) | Value::RecClosure { .. } => {}
            other => {
                return Err(Error::Artifact(format!(
                    "artifact entry point is not a function: `{generator}` generated {other}"
                )))
            }
        }
        let entry = PortableValue::extract(&result)
            .map_err(|e| Error::Artifact(format!("cannot extract `{generator}`: {e}")))?;
        Ok(CompiledFilter::new(
            entry,
            self.options.clone(),
            source_fingerprint,
        ))
    }

    /// Renders a machine value with this session's datatype names.
    pub fn render(&self, v: &Value) -> String {
        render_machine(v, &self.elab.data)
    }
}

/// Type checks `cd` in `checker` (extending it with the declaration's
/// bindings) and renders its principal type; the empty string when
/// type checking is off.
fn type_of(
    cd: &CoreDecl,
    elab: &Elab,
    checker: &mut Checker,
    typecheck: bool,
) -> Result<String, mlbox_syntax::diag::Diagnostic> {
    if !typecheck {
        return Ok(String::new());
    }
    let tcx = TypeCtx {
        data: &elab.data,
        abbrevs: &elab.abbrevs,
    };
    let t = checker.check_decl(cd, tcx)?;
    Ok(checker.display_type(&t, &elab.data))
}

fn decl_name(cd: &CoreDecl) -> Option<String> {
    match cd {
        CoreDecl::Val(n, _) | CoreDecl::Cogen(n, _) => Some(n.text().to_string()),
        CoreDecl::Fun(defs) => defs.last().map(|d| d.name.text().to_string()),
        CoreDecl::Expr(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_loads_prelude() {
        let mut s = Session::new().unwrap();
        let out = s.eval_expr("eval (lift 42)").unwrap();
        assert_eq!(out.value, "42");
        assert_eq!(out.ty, "int");
    }

    #[test]
    fn prelude_warnings_never_reach_the_user() {
        use mlbox_syntax::diag::Severity;
        use mlbox_syntax::span::Span;
        let mut s = Session::new().unwrap();
        assert!(
            s.take_warnings().is_empty(),
            "nth's partial match stays in the prelude"
        );
        s.run("val x = 1\nfun hd l = case l of a :: r => a")
            .unwrap();
        let w = s.take_warnings();
        assert_eq!(w.len(), 1, "{w:?}");
        assert_eq!(w[0].severity, Severity::Warning);
        assert_eq!(w[0].message, "match is not exhaustive");
        assert_eq!(w[0].span, Span::new(21, 42), "the user's own span");
        assert!(Session::new().unwrap().take_warnings().is_empty());
    }

    #[test]
    fn prelude_list_functions() {
        let mut s = Session::new().unwrap();
        assert_eq!(
            s.eval_expr("map (fn x => x * 2) [1, 2, 3]").unwrap().value,
            "[2, 4, 6]"
        );
        assert_eq!(s.eval_expr("rev [1, 2, 3]").unwrap().value, "[3, 2, 1]");
        assert_eq!(s.eval_expr("listLength [1, 2, 3]").unwrap().value, "3");
        assert_eq!(
            s.eval_expr("append ([1], [2, 3])").unwrap().value,
            "[1, 2, 3]"
        );
    }

    #[test]
    fn prelude_tables_memoize() {
        let mut s = Session::new().unwrap();
        s.run("val t = newTable ()").unwrap();
        assert_eq!(s.eval_expr("lookup (t, 3)").unwrap().value, "NONE");
        s.run("add (t, (3, 99))").unwrap();
        assert_eq!(s.eval_expr("lookup (t, 3)").unwrap().value, "SOME 99");
    }

    #[test]
    fn outcome_stats_are_per_declaration() {
        let mut s = Session::new().unwrap();
        let o1 = s.eval_expr("1 + 1").unwrap();
        let o2 = s.eval_expr("1 + 1").unwrap();
        assert_eq!(o1.stats.steps, o2.stats.steps);
        assert!(o1.stats.steps > 0);
    }

    #[test]
    fn staging_error_is_reported_with_source() {
        let mut s = Session::new().unwrap();
        let err = s.eval_expr("fn y => code (fn x => x + y)").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("earlier stage") || msg.contains("not in scope"),
            "{msg}"
        );
    }

    #[test]
    fn call_measures_a_single_application() {
        let mut s = Session::new().unwrap();
        s.run("fun double x = x * 2").unwrap();
        let (v, stats) = s.call("double", Value::Int(21)).unwrap();
        assert_eq!(v.to_string(), "42");
        assert!(stats.steps > 0 && stats.steps < 50);
    }

    #[test]
    fn generation_shows_in_stats() {
        let mut s = Session::new().unwrap();
        s.run("val g = code (fn x => x + 1)").unwrap();
        let out = s.eval_expr("eval g 1").unwrap();
        assert_eq!(out.value, "2");
        assert!(out.stats.emitted > 0, "invoking a generator emits code");
        assert!(out.stats.calls > 0);
    }

    #[test]
    fn fuel_option_limits_steps() {
        let mut s = Session::with_options(SessionOptions {
            fuel: Some(2_000),
            ..SessionOptions::default()
        })
        .unwrap();
        let err = s.run("fun loop n = loop n;\nloop 0").unwrap_err();
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn freeze_counters_flow_through_session_stats() {
        let mut s = Session::new().unwrap();
        s.run("val g = code (fn x => x + 1)").unwrap();
        let out = s.eval_expr("eval g 1").unwrap();
        assert_eq!(out.value, "2");
        assert!(out.stats.freezes > 0, "splicing freezes generated code");
        // Repeating the splice freezes fresh arenas (eval builds a new
        // arena per splice), so the per-outcome counters stay stable.
        let again = s.eval_expr("eval g 1").unwrap();
        assert_eq!(again.stats.freezes, out.stats.freezes);
        assert_eq!(again.stats.steps, out.stats.steps);
    }

    #[test]
    fn opcode_counting_is_an_option() {
        let mut s = Session::with_options(SessionOptions {
            count_opcodes: true,
            ..SessionOptions::default()
        })
        .unwrap();
        assert!(Session::new().unwrap().stats().opcodes.is_none());
        let out = s.eval_expr("1 + 2").unwrap();
        let counts = out.stats.opcodes.expect("enabled by the option");
        assert!(counts.get("prim") > 0, "the addition shows up");
        assert_eq!(
            counts.nonzero().map(|(_, c)| c).sum::<u64>(),
            out.stats.steps,
            "per-opcode counts partition the per-declaration steps"
        );
    }

    #[test]
    fn indexed_env_agrees_and_is_no_slower() {
        let run_mode = |indexed: bool| {
            let mut s = Session::with_options(SessionOptions {
                indexed_env: indexed,
                ..SessionOptions::default()
            })
            .unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            (out.value, out.stats.steps)
        };
        let (v_spine, s_spine) = run_mode(false);
        let (v_idx, s_idx) = run_mode(true);
        assert_eq!(v_spine, v_idx);
        assert!(s_idx <= s_spine, "indexed env took more steps");
    }

    #[test]
    fn flat_env_agrees_with_both_spine_modes_and_matches_indexed_steps() {
        let run_mode = |opts: SessionOptions| {
            let mut s = Session::with_options(opts).unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            (out.value, out.stats.steps)
        };
        let (v_spine, _) = run_mode(SessionOptions::default());
        let (v_idx, s_idx) = run_mode(SessionOptions {
            indexed_env: true,
            ..SessionOptions::default()
        });
        let (v_flat, s_flat) = run_mode(SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        });
        assert_eq!(v_spine, v_flat);
        assert_eq!(v_idx, v_flat);
        assert_eq!(
            s_flat, s_idx,
            "flat mode renders the same access paths as indexed mode"
        );
    }

    #[test]
    fn flat_env_wins_over_indexed_env() {
        // Both flags set: the session compiles in flat mode, so the
        // environment really is frame-backed (the declaration's bound
        // value still projects correctly via env_snd).
        let mut s = Session::with_options(SessionOptions {
            indexed_env: true,
            flat_env: true,
            count_opcodes: true,
            ..SessionOptions::default()
        })
        .unwrap();
        let outs = s.run("val x = 41;\nx + 1").unwrap();
        assert_eq!(outs[0].value, "41");
        assert_eq!(outs[1].value, "42");
        let counts = outs[0].stats.opcodes.expect("enabled");
        assert!(
            counts.get("env_cons") > 0,
            "a flat-mode `val` extends the environment with env_cons"
        );
    }

    #[test]
    fn indexed_env_executes_acc() {
        let mut s = Session::with_options(SessionOptions {
            indexed_env: true,
            count_opcodes: true,
            ..SessionOptions::default()
        })
        .unwrap();
        let out = s
            .eval_expr("let val a = 1 val b = 2 val c = 3 in a + b + c end")
            .unwrap();
        let counts = out.stats.opcodes.expect("enabled by the option");
        assert!(counts.get("acc") > 0, "indexed accesses run as acc");
    }

    #[test]
    fn print_output_is_captured() {
        let mut s = Session::new().unwrap();
        s.run("print \"hi \"; print \"there\"").unwrap();
        assert_eq!(s.take_output(), "hi there");
    }

    #[test]
    fn constructor_tag_lookup() {
        let mut s = Session::new().unwrap();
        s.run("datatype t = Alpha | Beta of int").unwrap();
        assert!(s.constructor_tag("Alpha").is_some());
        assert!(s.constructor_tag("Beta").is_some());
        assert!(s.constructor_tag("Gamma").is_none());
    }

    #[test]
    fn options_fingerprint_separates_every_mode() {
        let base = SessionOptions::default();
        let fp = |o: &SessionOptions| o.fingerprint();
        assert_eq!(fp(&base), fp(&base.clone()), "fingerprint is stable");
        let mut optimize = base.clone();
        optimize.optimize = true;
        assert_ne!(fp(&base), fp(&optimize), "optimize must change the key");
        let mut indexed = base.clone();
        indexed.indexed_env = true;
        assert_ne!(fp(&base), fp(&indexed), "indexed_env must change the key");
        let mut counted = base.clone();
        counted.count_opcodes = true;
        assert_ne!(fp(&base), fp(&counted), "count_opcodes must change the key");
        let mut fused = base.clone();
        fused.fuse = true;
        assert_ne!(fp(&base), fp(&fused), "fuse must change the key");
        let mut flat = base.clone();
        flat.flat_env = true;
        assert_ne!(fp(&base), fp(&flat), "flat_env must change the key");
        // The five non-default modes are also pairwise distinct.
        let modes = [&optimize, &indexed, &counted, &fused, &flat];
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                assert_ne!(fp(a), fp(b));
            }
        }
    }

    #[test]
    fn static_point_fingerprints_are_pinned() {
        // Store keys and the golden artifact header are these values; the
        // removed `native` slot still hashes as `false` so they did not
        // move when the option went.
        let pinned = [
            ((false, false), 0x17ec_a866_e1c9_0687_u64),
            ((true, false), 0x3b56_4433_f3d7_404e),
            ((false, true), 0x17e9_4266_e1c6_235e),
            ((true, true), 0x3b59_aa33_f3da_2377),
        ];
        for ((optimize, fuse), want) in pinned {
            let o = SessionOptions {
                optimize,
                fuse,
                ..SessionOptions::default()
            };
            assert_eq!(o.fingerprint(), want, "optimize {optimize}, fuse {fuse}");
        }
    }

    #[test]
    fn fuse_agrees_and_takes_fewer_steps() {
        let run_mode = |fuse: bool| {
            let mut s = Session::with_options(SessionOptions {
                fuse,
                ..SessionOptions::default()
            })
            .unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            (out.value, out.stats.steps, out.stats.fused)
        };
        let (v_plain, s_plain, f_plain) = run_mode(false);
        let (v_fused, s_fused, f_fused) = run_mode(true);
        assert_eq!(v_plain, v_fused);
        assert_eq!(f_plain, 0, "default mode dispatches no fused opcodes");
        assert!(f_fused > 0, "generated code was fused at freeze time");
        assert!(s_fused < s_plain, "fusion must drop the step count");
    }

    #[test]
    fn fuse_dispatches_fused_opcodes_in_static_code() {
        let mut s = Session::with_options(SessionOptions {
            fuse: true,
            count_opcodes: true,
            ..SessionOptions::default()
        })
        .unwrap();
        let out = s.eval_expr("1 + 2").unwrap();
        let counts = out.stats.opcodes.expect("enabled by the option");
        assert!(
            counts.get("quote_cons") > 0 || counts.get("push_quote") > 0,
            "static code runs fused: {:?}",
            counts.nonzero().collect::<Vec<_>>()
        );
        assert!(out.stats.fused > 0);
    }

    #[test]
    fn reset_stats_zeroes_the_counters() {
        let mut s = Session::new().unwrap();
        s.eval_expr("1 + 1").unwrap();
        assert!(s.stats().steps > 0);
        s.reset_stats();
        assert_eq!(s.stats().steps, 0);
        // The session still works afterwards, and measurements restart.
        let out = s.eval_expr("2 + 2").unwrap();
        assert_eq!(out.value, "4");
        assert_eq!(s.stats().steps, out.stats.steps);
    }

    fn adaptive_options(policy: TierPolicy) -> SessionOptions {
        SessionOptions {
            adaptive: Some(policy),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn profile_classifies_the_option_axes() {
        assert_eq!(SessionOptions::default().profile(), ExecProfile::Paper);
        let fused = SessionOptions {
            fuse: true,
            ..SessionOptions::default()
        };
        assert_eq!(
            fused.profile(),
            ExecProfile::Static(ExecFlags {
                optimize: false,
                fuse: true,
            })
        );
        let policy = TierPolicy::default();
        let adaptive = adaptive_options(policy);
        assert_eq!(adaptive.profile(), ExecProfile::Adaptive(policy));
        // with_profile is the inverse of profile, and set_profile leaves
        // the semantic axes alone.
        for p in [ExecProfile::Paper, fused.profile(), adaptive.profile()] {
            assert_eq!(SessionOptions::with_profile(p).profile(), p);
        }
        let mut o = SessionOptions {
            flat_env: true,
            fuel: Some(99),
            ..SessionOptions::default()
        };
        o.set_profile(ExecProfile::Adaptive(policy));
        assert!(o.flat_env && o.fuel == Some(99));
        o.set_profile(ExecProfile::Paper);
        assert_eq!(o.adaptive, None);
        assert!(o.flat_env && o.fuel == Some(99));
    }

    #[test]
    fn adaptive_rejects_static_tier_flags() {
        let mut o = adaptive_options(TierPolicy::default());
        o.fuse = true;
        let err = Session::with_options(o).unwrap_err();
        assert!(matches!(err, Error::Options(_)), "{err}");
    }

    #[test]
    fn adaptive_fingerprint_extends_without_disturbing_static_keys() {
        let paper = SessionOptions::default();
        let adaptive = adaptive_options(TierPolicy::default());
        assert_ne!(paper.fingerprint(), adaptive.fingerprint());
        let eager = adaptive_options(TierPolicy {
            promote_after: 0,
            ..TierPolicy::default()
        });
        assert_ne!(adaptive.fingerprint(), eager.fingerprint());
        // The golden lockfiles pin the exact Paper fingerprint through
        // the wire tests; here we just check adaptive is a pure
        // extension: clearing it restores the static key.
        let mut cleared = adaptive.clone();
        cleared.adaptive = None;
        assert_eq!(paper.fingerprint(), cleared.fingerprint());
    }

    #[test]
    fn adaptive_profile_matches_paper_steps_and_verdicts() {
        let run_profile = |options: SessionOptions| {
            let mut s = Session::with_options(options).unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let mut steps = Vec::new();
            let mut values = Vec::new();
            for _ in 0..10 {
                let out = s.eval_expr("f 47").unwrap();
                values.push(out.value);
                steps.push(out.stats.steps);
            }
            (values, steps, s.stats())
        };
        let (v_paper, s_paper, _) = run_profile(SessionOptions::default());
        for promote_after in [0, 1, 8] {
            let (v_ad, s_ad, total) = run_profile(adaptive_options(TierPolicy {
                promote_after,
                ..TierPolicy::default()
            }));
            assert_eq!(v_paper, v_ad, "promote_after {promote_after}");
            assert_eq!(
                s_paper, s_ad,
                "promotion must be invisible in per-call steps (promote_after {promote_after})"
            );
            assert!(
                total.promotions > 0,
                "the hot filter was promoted (promote_after {promote_after}): {total:?}"
            );
            assert_eq!(
                total.tier_steps.iter().sum::<u64>(),
                total.steps,
                "tier steps partition the session total"
            );
        }
    }

    #[test]
    fn adaptive_works_in_flat_env_mode_too() {
        let run = |adaptive: Option<TierPolicy>| {
            let mut s = Session::with_options(SessionOptions {
                flat_env: true,
                adaptive,
                ..SessionOptions::default()
            })
            .unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            let out2 = s.eval_expr("f 47").unwrap();
            assert_eq!(out.stats.steps, out2.stats.steps);
            (out.value, out.stats.steps)
        };
        let (v_flat, s_flat) = run(None);
        let (v_ad, s_ad) = run(Some(TierPolicy {
            promote_after: 1,
            ..TierPolicy::default()
        }));
        assert_eq!(v_flat, v_ad);
        assert_eq!(s_flat, s_ad, "indexed-unit charging matches flat mode");
    }

    #[test]
    fn types_are_reported() {
        let mut s = Session::new().unwrap();
        let outs = s
            .run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end")
            .unwrap();
        assert_eq!(outs[0].ty, "int list -> (int -> int) $");
    }
}
