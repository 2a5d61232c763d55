//! CI gate: the untrusted-ingestion parse paths must stay panic-free.
//!
//! The liblite parser and the Verilog reader/writer promise to be total
//! over arbitrary bytes — every input either parses or returns a typed
//! error. A stray `.unwrap()` added to one of those files silently turns
//! a hostile input into a process abort, so this script greps the parse
//! paths for panicking constructs outside `#[cfg(test)]` code and fails
//! CI when it finds a new one.
//!
//! Deliberately dependency-free (compiled with bare `rustc` in CI, no
//! cargo/registry), like `check_bench.rs`:
//!
//! ```text
//! rustc -O scripts/check_panic_free.rs -o check_panic_free
//! ./check_panic_free            # scan the built-in parse-path list
//! ./check_panic_free FILE ...   # scan an explicit list instead
//! ```
//!
//! The scan is line-based: comments are stripped (so prose like "never
//! panics" does not trip it), everything from the first `#[cfg(test)]`
//! line onward is ignored (the repo convention keeps test modules at the
//! end of the file), and the forbidden set is `.unwrap()`, `.expect(`,
//! `panic!(`, `unreachable!(`, `todo!(`, and `unimplemented!(`. If a
//! parse-path file ever needs a genuinely unreachable panic, rewrite it
//! as a typed error instead — that is the point of the gate.

use std::process::ExitCode;

/// Files reachable from the untrusted ingestion paths: the liblite
/// lexer/parser, the Verilog reader, the writer it round-trips with, the
/// builder both parsers reconstruct through, the serve wire protocol
/// (request parsing for every verb — including the `predict_delta` edit
/// specs and `sweep` item lists — plus error salvage, all fed raw client
/// bytes), and the GBDT forest compiler that validates the trees of every
/// model file the registry loads.
const PARSE_PATHS: [&str; 7] = [
    "crates/gbdt/src/forest.rs",
    "crates/liberty/src/error.rs",
    "crates/liberty/src/format.rs",
    "crates/netlist/src/builder.rs",
    "crates/netlist/src/reader.rs",
    "crates/netlist/src/verilog.rs",
    "crates/serve/src/protocol.rs",
];

const FORBIDDEN: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Drop `//` comments, respecting string literals well enough for this
/// codebase (no raw strings containing `//` on the parse paths).
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped byte
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn scan(path: &str, text: &str) -> Vec<String> {
    let mut hits = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break; // test modules sit at the end of the file
        }
        let line = strip_comment(raw);
        for pat in FORBIDDEN {
            if line.contains(pat) {
                hits.push(format!("{path}:{}: `{pat}` — {}", i + 1, raw.trim()));
            }
        }
    }
    hits
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<String> = if args.is_empty() {
        PARSE_PATHS.iter().map(|s| (*s).to_owned()).collect()
    } else {
        args
    };

    let mut hits = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => hits.extend(scan(path, &text)),
            Err(e) => {
                // A moved/renamed parse-path file must update this list,
                // not silently drop out of the gate.
                eprintln!("check_panic_free: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if hits.is_empty() {
        println!(
            "check_panic_free: {} file(s) clean of panicking constructs",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "check_panic_free: {} panicking construct(s) on the untrusted parse paths \
             (return a typed ParseLibError/NetlistParseError instead):",
            hits.len()
        );
        for hit in &hits {
            eprintln!("  {hit}");
        }
        ExitCode::FAILURE
    }
}
