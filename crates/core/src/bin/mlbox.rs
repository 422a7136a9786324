//! The `mlbox` command-line driver.
//!
//! ```text
//! mlbox run FILE.ml       # run a program, print each binding with type and steps
//! mlbox check FILE.ml     # parse + elaborate + type check only
//! mlbox eval 'EXPR'       # evaluate one expression (prelude loaded)
//! mlbox repl              # interactive read-eval-print loop
//! ```
//!
//! Every command runs the Paper profile ([`SessionOptions::paper`]), so
//! the step counts it prints are the paper's.

use mlbox::{Session, SessionOptions};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_file(args.get(1)),
        Some("check") => check_file(args.get(1)),
        Some("eval") => eval_expr(args.get(1)),
        Some("repl") | None => repl(),
        Some(other) => {
            eprintln!("unknown command `{other}`");
            usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!("usage: mlbox [run FILE | check FILE | eval EXPR | repl]");
}

fn read_source(path: Option<&String>) -> Result<String, Box<dyn std::error::Error>> {
    let Some(path) = path else {
        usage();
        std::process::exit(2);
    };
    Ok(std::fs::read_to_string(path)?)
}

fn check_file(path: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let src = read_source(path)?;
    let checked = Session::with_options(SessionOptions::paper())?.check(&src)?;
    for w in &checked.warnings {
        eprintln!("{}", w.render(&src));
    }
    for (name, ty) in checked.decls {
        if let Some(name) = name {
            println!("val {name} : {ty}");
        }
    }
    Ok(())
}

fn run_file(path: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let src = read_source(path)?;
    let mut session = Session::with_options(SessionOptions::paper())?;
    // Declarations before a failing one are bound: report them too.
    let mut outcomes = Vec::new();
    let result = session.run_each(&src, |o| outcomes.push(o));
    for w in session.take_warnings() {
        eprintln!("{}", w.render(&src));
    }
    for o in &outcomes {
        match &o.name {
            Some(name) => println!(
                "val {name} : {} = {}   ({} steps, {} emitted)",
                o.ty, o.value, o.stats.steps, o.stats.emitted
            ),
            None => println!(
                "- : {} = {}   ({} steps, {} emitted)",
                o.ty, o.value, o.stats.steps, o.stats.emitted
            ),
        }
    }
    // Declarations before a failing one may have printed.
    print_output(&mut session);
    Ok(result?)
}

/// Prints what the program wrote with `print`, under a header.
fn print_output(session: &mut Session) {
    let out = session.take_output();
    if !out.is_empty() {
        println!("--- output ---");
        println!("{out}");
    }
}

fn eval_expr(expr: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let Some(expr) = expr else {
        usage();
        std::process::exit(2);
    };
    let mut session = Session::with_options(SessionOptions::paper())?;
    let result = session.eval_expr(expr);
    if let Ok(o) = &result {
        println!("- : {} = {}   ({} steps)", o.ty, o.value, o.stats.steps);
    }
    // A failing expression may have printed before it failed.
    print!("{}", session.take_output());
    result?;
    Ok(())
}

fn repl() -> Result<(), Box<dyn std::error::Error>> {
    println!("MLbox — run-time code generation with modal types (PLDI 1998)");
    println!("type declarations or expressions; :q quits, :stats shows totals");
    let mut session = Session::with_options(SessionOptions {
        fuel: Some(500_000_000),
        ..SessionOptions::paper()
    })?;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("mlbox> ");
        std::io::stdout().flush()?;
        line.clear();
        if stdin.lock().read_line(&mut line)? == 0 {
            return Ok(());
        }
        let input = line.trim();
        match input {
            "" => continue,
            ":q" | ":quit" => return Ok(()),
            ":stats" => {
                let s = session.stats();
                println!(
                    "total: {} steps, {} emitted, {} arenas, {} calls",
                    s.steps, s.emitted, s.arenas, s.calls
                );
                continue;
            }
            _ => {}
        }
        // Declarations before a failing one are bound: report them too.
        let mut outcomes = Vec::new();
        let result = session.run_each(input, |o| outcomes.push(o));
        for w in session.take_warnings() {
            println!("{}", w.render(input));
        }
        for o in &outcomes {
            let name = o.name.as_deref().unwrap_or("it");
            println!(
                "val {name} : {} = {}   ({} steps)",
                o.ty, o.value, o.stats.steps
            );
        }
        // Declarations before a failing one may have printed.
        print!("{}", session.take_output());
        if let Err(e) = result {
            println!("{e}");
        }
    }
}
