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
use ccam::machine::{Machine, Stats, Trace};
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
    /// Grow the environment as contiguous `Vec`-backed frames
    /// (`env_cons`) and compile each variable access as one `acc n`, an
    /// O(1) slot load, instead of the paper's `fst^n; snd` spine walk
    /// (DESIGN.md §12). Default: false, keeping the paper's pair-spine
    /// representation and Table 1's exact cost model.
    pub flat_env: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            prelude: true,
            fuel: None,
            flat_env: false,
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
        // Removed options keep their slots, hashed at the one value they
        // had in use: the golden artifact's header and every store key
        // are fingerprints, so dropping a slot would change them all.
        // Here: `typecheck` (always on), then the removed static
        // `optimize`, `count_opcodes` and `indexed_env` flags.
        h.write_bool(true);
        h.write_bool(false);
        h.write_bool(false);
        h.write_bool(false);
        h.write_bool(self.flat_env);
        // The removed static `fuse` and thread-coded tier `native` flags.
        h.write_bool(false);
        h.write_bool(false);
        h.finish()
    }
}

/// The result of processing one declaration.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Binding name, if the declaration bound one.
    pub name: Option<String>,
    /// Rendered principal type.
    pub ty: String,
    /// Rendered value.
    pub value: String,
    /// The raw machine value. It is session-scoped: it may share cells
    /// and code with the session that produced it, and dropping that
    /// session tears them down (a `ref` it reaches holds `()`, an array
    /// is empty, and applying a function it holds fails with
    /// [`MachineError::DanglingBlock`](ccam::machine::MachineError::DanglingBlock)).
    /// Use it while the session lives; [`Outcome::value`] and
    /// [`Session::compile_to_artifact`] are the forms that outlive it.
    pub raw: Value,
    /// Machine statistics for this declaration alone.
    pub stats: Stats,
}

/// What [`Session::check`] learned about a program without running it.
#[derive(Debug, Clone)]
pub struct Checked {
    /// `(binding name, rendered principal type)` per core declaration,
    /// in order.
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
    /// A session with the default options (prelude loaded, no fuel
    /// limit).
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
        let mut outcomes = Vec::new();
        self.run_each(src, |o| outcomes.push(o))?;
        Ok(outcomes)
    }

    /// [`Session::run`], handing each core declaration's [`Outcome`] to
    /// `each` as soon as it completes, so a caller also sees the
    /// declarations that succeeded before a failing one.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_each(&mut self, src: &str, mut each: impl FnMut(Outcome)) -> Result<(), Error> {
        let program = parse_program(src).map_err(|d| self.static_err(d, src))?;
        for decl in &program.decls {
            let core_decls = self
                .elab
                .elab_decl(decl)
                .map_err(|d| self.static_err(d, src))?;
            for cd in &core_decls {
                each(self.process_core_decl(cd, src)?);
            }
        }
        Ok(())
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
                let ty = type_of(cd, &elab, &mut checker).map_err(|d| self.static_err(d, src))?;
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

    fn process_core_decl(&mut self, cd: &CoreDecl, src: &str) -> Result<Outcome, Error> {
        let ty = type_of(cd, &self.elab, &mut self.checker).map_err(|d| self.static_err(d, src))?;
        // Compile.
        let (code, new_ctx, effect) =
            compile_decl(cd, &self.ctx, &self.seg).map_err(|d| self.static_err(d, src))?;
        debug_assert!(
            validate(&self.seg, &code).is_ok(),
            "compiler produced nested emits"
        );
        // Run, measuring this declaration alone. The entry block is this
        // run's alone (values name nested blocks, never it), so it is
        // taken back afterwards, as in `call`.
        let entry = self.seg.entry(code);
        let block = entry.block;
        let before = self.machine.stats();
        let result = self.machine.run(entry, self.env.clone());
        self.seg.drop_last_entry(block);
        let result = result?;
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
    /// The argument and the result are session-scoped, as
    /// [`Outcome::raw`] is: once `arg` is reachable from the session's
    /// state (stored in a cell, or quoted into code the run generated),
    /// dropping the session empties the cells it reaches.
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
        let entry = self.seg.entry(code);
        let block = entry.block;
        let before = self.machine.stats();
        let result = self.machine.run(entry, self.env.clone());
        // The call's block is this run's alone: taking it back keeps a
        // session that is called per packet from growing per packet.
        self.seg.drop_last_entry(block);
        let stats = self.machine.stats().delta_since(&before);
        Ok((result?, stats))
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
    /// threads, or an [`Error::Wire`] if its encoding would not load
    /// (it nests deeper than [`ccam::wire::MAX_DECODE_DEPTH`]): the
    /// artifact is validated by the same check a load runs.
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
        let result = self.machine.run(self.seg.entry(code), self.env.clone())?;
        match &result {
            Value::Closure(_) | Value::RecClosure { .. } => {}
            other => {
                return Err(Error::Artifact(format!(
                    "artifact entry point is not a function: `{generator}` generated {other}"
                )))
            }
        }
        let (payload, _) = ccam::wire::encode(&result)
            .map_err(|e| Error::Artifact(format!("cannot encode `{generator}`: {e}")))?;
        CompiledFilter::new(&payload, self.options.clone(), source_fingerprint)
    }

    /// Renders a machine value with this session's datatype names.
    pub fn render(&self, v: &Value) -> String {
        render_machine(v, &self.elab.data)
    }
}

impl Drop for Session {
    /// Frees everything the session allocated (DESIGN.md §16): tears its
    /// segment down, emptying every mutable cell its environment and its
    /// code reach, so the `Rc` cycles through them cannot outlive it.
    /// Values that escaped the session die with it (see [`Outcome::raw`]).
    fn drop(&mut self) {
        let env = std::mem::replace(&mut self.env, Value::Unit);
        self.seg.tear_down([env]);
    }
}

/// Type checks `cd` in `checker` (extending it with the declaration's
/// bindings) and renders its principal type.
fn type_of(
    cd: &CoreDecl,
    elab: &Elab,
    checker: &mut Checker,
) -> Result<String, mlbox_syntax::diag::Diagnostic> {
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

    /// One way to run code against a session per request: the rendered
    /// result of applying `inc` to the argument, and the run's steps.
    type Request = fn(&mut Session, i64) -> Result<(String, u64), Error>;

    #[test]
    fn calls_do_not_grow_the_segment() {
        // Every request compiles into a fresh entry block that only its
        // own run uses; each is taken back afterwards, on the error path
        // too, so per-request use does not grow the segment.
        let requests: [(&str, Request, i64); 4] = [
            (
                "call",
                |s, i| {
                    let (v, stats) = s.call("inc", Value::Int(i))?;
                    Ok((v.to_string(), stats.steps))
                },
                10_000,
            ),
            (
                "eval_expr",
                |s, i| {
                    let out = s.eval_expr(&format!("inc {i}"))?;
                    Ok((out.value, out.stats.steps))
                },
                1_000,
            ),
            (
                "run",
                |s, i| {
                    let out = s.run(&format!("val y = inc {i}"))?;
                    Ok((out[0].value.clone(), out[0].stats.steps))
                },
                1_000,
            ),
            (
                "failing eval_expr",
                |s, i| {
                    let out = s.eval_expr(&format!("inc {i} div 0"))?;
                    Ok((out.value, out.stats.steps))
                },
                1_000,
            ),
        ];
        for promote_after in [u64::MAX, 0, 1] {
            for (name, request, n) in requests {
                let mut s = Session::new().unwrap();
                s.machine.set_promote_after(promote_after);
                s.run("fun inc x = x + 1").unwrap();
                let first = request(&mut s, 0).ok();
                let blocks = s.code_segment().num_blocks();
                for i in 0..n {
                    match (request(&mut s, i), &first) {
                        (Ok((v, steps)), Some((_, first_steps))) => {
                            assert_eq!(v, (i + 1).to_string(), "{name} {promote_after}");
                            // `val y` deepens the environment `inc` is
                            // found in, so only the others repeat steps.
                            if name != "run" {
                                assert_eq!(steps, *first_steps, "{name} {promote_after}");
                            }
                        }
                        (Err(e), None) => assert!(e.to_string().contains("zero"), "{e}"),
                        (r, _) => panic!("{name} {promote_after}: {r:?} after {first:?}"),
                    }
                }
                let grown = s.code_segment().num_blocks() - blocks;
                assert!(grown <= 2, "{name} {promote_after}: {grown} blocks");
            }
        }
    }

    #[test]
    fn values_that_escape_a_dropped_session_die_with_it() {
        use crate::artifact::{app_code, apply};
        use ccam::machine::MachineError;
        let mut s = Session::new().unwrap();
        s.run("val r = ref 41\nfun inc x = x + 1").unwrap();
        let cell = s.eval_expr("r").unwrap().raw;
        let inc = s.eval_expr("inc").unwrap().raw;
        let mut machines = [u64::MAX, 0].map(|promote_after| {
            let mut m = machine_for(&SessionOptions::default());
            m.set_promote_after(promote_after);
            m
        });
        // While the session lives, its values are live.
        for m in &mut machines {
            let (v, _) = apply(m, &app_code(), &inc, Value::Int(1)).unwrap();
            assert!(matches!(v, Value::Int(2)));
        }
        drop(s);
        // Then its cells are empty and its code is gone: applying the
        // function is a typed error on either tier, not a panic.
        assert!(matches!(&cell, Value::Ref(c) if matches!(*c.borrow(), Value::Unit)));
        for m in &mut machines {
            let err = apply(m, &app_code(), &inc, Value::Int(1)).unwrap_err();
            assert!(matches!(err, MachineError::DanglingBlock { .. }), "{err}");
        }
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

    // Flat frames are the session's one indexed environment: every
    // access is a single `acc n` slot load.

    #[test]
    fn indexed_env_agrees_and_is_no_slower() {
        let run_mode = |flat_env: bool| {
            let mut s = Session::with_options(SessionOptions {
                flat_env,
                ..SessionOptions::default()
            })
            .unwrap();
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            (out.value, out.stats.steps)
        };
        let (v_spine, s_spine) = run_mode(false);
        let (v_flat, s_flat) = run_mode(true);
        assert_eq!(v_spine, v_flat);
        assert!(s_flat <= s_spine, "flat env took more steps");
    }

    /// How many of the instructions traced since `set_trace` were `mnemonic`.
    fn traced(s: &Session, mnemonic: &str) -> usize {
        let trace = s.trace().expect("tracing enabled");
        trace
            .entries
            .iter()
            .filter(|e| e.mnemonic == mnemonic)
            .count()
    }

    #[test]
    fn indexed_env_executes_acc() {
        let mut s = Session::with_options(SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        })
        .unwrap();
        s.set_trace(1 << 16);
        s.eval_expr("let val a = 1 val b = 2 val c = 3 in a + b + c end")
            .unwrap();
        assert!(traced(&s, "acc") > 0, "flat accesses run as acc");
        s.set_trace(1 << 16);
        assert_eq!(s.run("val x = 41").unwrap()[0].value, "41");
        assert!(
            traced(&s, "env_cons") > 0,
            "a flat-mode `val` extends the environment with env_cons"
        );
        assert_eq!(s.eval_expr("x + 1").unwrap().value, "42");
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
        let mut flat = base.clone();
        flat.flat_env = true;
        assert_ne!(fp(&base), fp(&flat), "flat_env must change the key");
        let mut fueled = base.clone();
        fueled.fuel = Some(1_000);
        assert_ne!(fp(&base), fp(&fueled), "fuel must change the key");
        assert_ne!(fp(&flat), fp(&fueled));
    }

    #[test]
    fn static_point_fingerprints_are_pinned() {
        // Store keys and the golden artifact header are these values; the
        // removed `optimize`, `fuse` and `native` slots still hash as
        // `false` so they did not move when the options went.
        assert_eq!(
            SessionOptions::default().fingerprint(),
            0x17ec_a866_e1c9_0687_u64
        );
    }

    #[test]
    fn fuse_dispatches_fused_opcodes_in_static_code() {
        // Promotion at the first activation fuses statically compiled
        // code too, and still reports Paper's steps.
        let paper = Session::new().unwrap().eval_expr("1 + 2").unwrap();
        let mut s = Session::new().unwrap();
        s.machine.set_promote_after(0);
        let out = s.eval_expr("1 + 2").unwrap();
        assert_eq!(out.value, "3");
        assert_eq!(out.stats.steps, paper.stats.steps);
        assert_eq!(
            out.stats.tier_steps[0], 0,
            "nothing ran cold: {:?}",
            out.stats
        );
        assert!(out.stats.tier_steps[1] > 0, "static code runs fused");
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

    #[test]
    fn adaptive_profile_matches_paper_steps_and_verdicts() {
        let run_profile = |promote_after: u64| {
            let mut s = Session::new().unwrap();
            s.machine.set_promote_after(promote_after);
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
        let (v_paper, s_paper, _) = run_profile(u64::MAX);
        for promote_after in [0, 1, 8] {
            let (v_ad, s_ad, total) = run_profile(promote_after);
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
    fn default_sessions_promote_a_hot_specialized_function() {
        use ccam::machine::PROMOTE_AFTER;
        let comp_poly = "fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end";
        let mut s = Session::new().unwrap();
        s.run(&format!(
            "{comp_poly}\nval f = eval (compPoly [2, 4, 0, 2333])"
        ))
        .unwrap();
        let oracle = crate::differential::run_both(
            &format!("{comp_poly};\neval (compPoly [2, 4, 0, 2333]) 47"),
            true,
        )
        .unwrap()
        .interp;
        let before = s.stats();
        let (v0, first) = s.call("f", Value::Int(47)).unwrap();
        assert_eq!(s.render(&v0), oracle);
        for i in 0..=PROMOTE_AFTER {
            let (v, stats) = s.call("f", Value::Int(47)).unwrap();
            assert_eq!(s.render(&v), oracle, "call {i}");
            assert_eq!(stats.steps, first.steps, "call {i}");
        }
        let total = s.stats().delta_since(&before);
        assert!(total.promotions > 0, "{total:?}");
        assert!(total.tier_steps[1] > 0, "{total:?}");
        assert_eq!(total.tier_steps.iter().sum::<u64>(), total.steps);
    }

    #[test]
    fn adaptive_works_in_flat_env_mode_too() {
        let run = |promote_after: u64| {
            let mut s = Session::with_options(SessionOptions {
                flat_env: true,
                ..SessionOptions::default()
            })
            .unwrap();
            s.machine.set_promote_after(promote_after);
            s.run("fun compPoly p = case p of nil => code (fn x => 0) | a :: p' => let cogen f = compPoly p' cogen a' = lift a in code (fn x => a' + (x * f x)) end\nval f = eval (compPoly [2, 4, 0, 2333])").unwrap();
            let out = s.eval_expr("f 47").unwrap();
            let out2 = s.eval_expr("f 47").unwrap();
            assert_eq!(out.stats.steps, out2.stats.steps);
            (out.value, out.stats.steps)
        };
        let (v_flat, s_flat) = run(u64::MAX);
        let (v_ad, s_ad) = run(1);
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
