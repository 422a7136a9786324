//! Front-end replay: the parse → elaborate → type check → compile
//! pipeline a [`mlbox::Session`] runs on each declaration, driven here
//! through each layer crate's public entry point so the traced run can
//! time the layers one by one. Nothing is executed: the replay stops at
//! the compiled code, whose size it counts.

use crate::trace::Tracer;
use ccam::seg::CodeSeg;
use mlbox_compile::compile::{compile_decl, DeclEffect};
use mlbox_compile::ctx::{Ctx, EnvMode};
use mlbox_ir::elab::Elab;
use mlbox_syntax::parser::parse_program;
use mlbox_types::check::{Checker, TypeCtx};

/// The static state a session threads through its declarations.
struct FrontEnd {
    elab: Elab,
    checker: Checker,
    ctx: Ctx,
    seg: CodeSeg,
}

impl FrontEnd {
    /// An empty front end in the default (Paper-profile) environment
    /// mode; feed it the prelude first, as `Session::new` does.
    fn new() -> FrontEnd {
        FrontEnd {
            elab: Elab::new(),
            checker: Checker::new(),
            ctx: Ctx::root_with(EnvMode::PairSpine),
            seg: CodeSeg::new(),
        }
    }

    /// Replays one program through the four layers, returning the number
    /// of instructions compiled (top-level code plus nested blocks).
    fn feed(&mut self, src: &str, tr: &mut Tracer) -> Result<u64, String> {
        tr.begin("syntax.parse");
        let program = parse_program(src).map_err(|d| d.to_string());
        tr.end("syntax.parse");
        let mut instrs = 0u64;
        for decl in &program?.decls {
            tr.begin("ir.elab");
            let core = self.elab.elab_decl(decl).map_err(|d| d.to_string());
            tr.end("ir.elab");
            for cd in &core? {
                tr.begin("types.check");
                let tcx = TypeCtx {
                    data: &self.elab.data,
                    abbrevs: &self.elab.abbrevs,
                };
                let checked = self
                    .checker
                    .check_decl(cd, tcx)
                    .map(|t| self.checker.display_type(&t, &self.elab.data))
                    .map_err(|d| d.to_string());
                tr.end("types.check");
                checked?;
                tr.begin("compile.compile");
                let before = self.seg.len();
                let compiled = compile_decl(cd, &self.ctx, &self.seg).map_err(|d| d.to_string());
                tr.end("compile.compile");
                let (code, ctx, effect) = compiled?;
                instrs += (code.len() + self.seg.len() - before) as u64;
                if effect == DeclEffect::ExtendsEnv {
                    self.ctx = ctx;
                }
            }
        }
        Ok(instrs)
    }
}

/// Replays a session's worth of sources (prelude first) and records the
/// compiled size under the `compile.instrs` counter and one
/// `front.items` count.
pub fn replay(sources: &[&str], tr: &mut Tracer) -> Result<(), String> {
    let mut fe = FrontEnd::new();
    let mut instrs = fe.feed(mlbox::prelude::PRELUDE, tr)?;
    for src in sources {
        instrs += fe.feed(src, tr)?;
    }
    tr.count("compile.instrs", instrs as f64);
    tr.count("front.items", 1.0);
    Ok(())
}
