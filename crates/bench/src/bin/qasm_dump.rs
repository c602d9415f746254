//! Dumps the compiled circuit of every benchmark instance as QASM — the
//! byte-identity harness used to prove refactors leave compiled output
//! untouched.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin qasm_dump -- [--out DIR]`
//!
//! One `.qasm` file per instance is written: the three §V figure families
//! (`lattice`, `tree`, `random`) under [`bench_framework`] and the default
//! corpus (`epgs_corpus::CorpusSpec::default_corpus`) under
//! [`corpus_framework`]. Comparing two dump directories with `diff -r`
//! across a refactor certifies the compiled circuits are byte-identical.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use epgs_bench::{all_families, bench_framework, corpus_framework};
use epgs_circuit::qasm::to_qasm;
use epgs_corpus::CorpusSpec;

fn main() -> ExitCode {
    let mut out_dir = "target/qasm_dump".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: qasm_dump [--out DIR]");
                return ExitCode::FAILURE;
            }
        }
    }
    let out = Path::new(&out_dir);
    if let Err(e) = fs::create_dir_all(out) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }

    let mut written = 0usize;
    let pipeline = bench_framework();
    for (family, sweep) in all_families() {
        for (n, g) in sweep {
            let compiled = match pipeline.compile(&g) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{family}-{n}: compile failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let path = out.join(format!("{family}-{n}.qasm"));
            if let Err(e) = fs::write(&path, to_qasm(&compiled.circuit)) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            written += 1;
        }
    }

    let corpus_pipeline = corpus_framework();
    for inst in CorpusSpec::default_corpus().instances() {
        let compiled = match corpus_pipeline.compile(&inst.graph) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: compile failed: {e}", inst.id);
                return ExitCode::FAILURE;
            }
        };
        let path = out.join(format!("corpus-{}.qasm", inst.id));
        if let Err(e) = fs::write(&path, to_qasm(&compiled.circuit)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        written += 1;
    }

    println!("{written} circuits dumped to {out_dir}");
    ExitCode::SUCCESS
}
