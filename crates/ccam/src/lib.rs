//! **The CCAM** — the Categorical Abstract Machine of Cousineau, Curien,
//! and Mauny, extended for run-time code generation as described in
//! *Run-time Code Generation and Modal-ML* (Wickline, Lee, Pfenning;
//! PLDI 1998), §4.
//!
//! The machine adds five instructions to the CAM:
//!
//! | instruction | effect |
//! |---|---|
//! | `emit(i)` | append the static instruction `i` to the arena under construction |
//! | `lift`    | residualize the current value into the arena as a `quote` |
//! | `arena`   | create a fresh empty arena |
//! | `merge`   | insert one arena into another as a `Cur` function body |
//! | `call`    | splice dynamically generated code into the instruction stream |
//!
//! Generating extensions are encoded as sequences of `emit` instructions —
//! machine code is synthesized directly from machine code, Fabius-style,
//! with values embedded in the instruction stream as immediates. Nested
//! emits are structurally rejected ([`instr::validate`]).
//!
//! Code is **flat**: all instructions live in a contiguous [`seg::CodeSeg`]
//! arena, nested code (closure bodies, branch arms, …) is referenced by
//! [`seg::BlockId`] into the segment's block table, and run-time generation
//! appends frozen blocks to the segment's growable tail. Machine frames
//! are `(segment, block, pc)` triples, so dispatch walks a contiguous
//! slice with no per-step reference counting.
//!
//! The simulator counts **reduction steps** (one per executed instruction),
//! the measurement unit of the paper's Table 1, plus emitted-instruction,
//! arena, and call counters.
//!
//! # Examples
//!
//! Generate code at run time and execute it:
//!
//! ```
//! use ccam::instr::Instr;
//! use ccam::machine::Machine;
//! use ccam::seg::CodeSeg;
//! use ccam::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // With 42 as the current value: create an arena, residualize 42 into
//! // it (emitting `quote 42`), and call the generated code.
//! let seg = CodeSeg::new();
//! let prog = seg.entry(vec![
//!     Instr::Push,
//!     Instr::NewArena,
//!     Instr::ConsPair,   // (42, {})
//!     Instr::LiftV,      // (42, {quote 42})
//!     Instr::Call,       // runs the generated code
//! ]);
//! let mut machine = Machine::new();
//! let out = machine.run(prog, Value::Int(42))?;
//! assert!(matches!(out, Value::Int(42)));
//! assert_eq!(machine.stats().emitted, 1);
//! # Ok(())
//! # }
//! ```

pub mod disasm;
pub mod instr;
pub mod machine;
pub mod opt;
pub mod portable;
pub mod relocate;
pub mod seg;
pub mod value;
pub mod wire;

pub use instr::{Instr, PrimOp, SwitchArm, SwitchTable};
pub use machine::{Machine, MachineError, Stats};
pub use portable::{PortableCode, PortableInstr, PortableValue};
pub use seg::{BlockId, CodeBuilder, CodeRef, CodeSeg};
pub use value::{Arena, ConTag, Value};
pub use wire::{decode_value, encode_value, WireError};
