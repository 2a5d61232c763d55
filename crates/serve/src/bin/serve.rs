//! The `serve` binary: answer JSON-lines prediction requests over
//! stdin/stdout or TCP, hosting one or more registry-loaded models
//! behind one front door.
//!
//! ```text
//! serve --registry DIR --model SPEC [--model SPEC ...]
//!       [--default-model NAME] [--workers N] [--cache-mb MIB]
//!       [--precision f64|f32]
//!       [--model-quota NAME=K ...] [--workload-file PATH]
//!       [--tcp ADDR] [--max-conns N] [--reactor-threads N]
//!       [--shard-id N] [--cache-snapshot PATH]
//! serve --registry DIR --list
//! ```
//!
//! Each `--model SPEC` adds one model to the catalog: `NAME` serves the
//! registry entry `NAME` under that name, `ALIAS=NAME` serves it under
//! `ALIAS`, and `ALIAS=PATH` (any value with a path separator or an
//! `.atlas.json` suffix) loads an explicit model file. The first spec is
//! the default model unless `--default-model` picks another. Requests
//! route by their optional `model` field; see `docs/PROTOCOL.md` for the
//! full wire reference.
//!
//! The catalog is only the *starting* set: the `load_model` and
//! `unload_model` verbs add and remove hosted models at runtime.
//! `--model-quota NAME=K` caps how many workers model `NAME`'s cold
//! (uncached) requests may occupy at once — models without a flag share
//! the pool fairly (`workers / hosted models`). `--workload-file PATH`
//! makes the `register_workload` library durable: registrations append
//! to the JSON-lines journal and are replayed at the next startup.
//! `--precision f32` stores every hosted model's cached embeddings as
//! f32: the encoder still computes in f64 and each row is narrowed once,
//! so embedding rows cost half the bytes and the same `--cache-mb`
//! budget holds more traces (≈1.5× at hidden 24, counting the cached
//! watts), at one f32 rounding of accuracy instead of bit parity with
//! f64.
//!
//! `--cache-mb` is each model's cache budget in MiB (2^20 bytes) and
//! takes a decimal, so a byte-exact budget passes through unchanged.
//!
//! Both transports hand every line to the one dispatcher, the reactor's
//! `Frontend` implementation for `AtlasService`. In stdio mode
//! `serve_lines` answers stdin's requests one at a time, in order, on
//! stdout (a `sweep` streams its frames as items finish); EOF drains
//! the service. In TCP mode `--reactor-threads N` epoll reactor
//! threads (default 1) multiplex every connection — each with its own
//! `SO_REUSEPORT` listener where the kernel allows it — so the whole
//! process runs on `--workers + N + 1` OS threads regardless of
//! connection count. SIGINT or SIGTERM drains it: both are blocked
//! before any thread starts, `main` waits for one in `sigwait`, then
//! stops the reactors (open connections close) and exits 0.
//!
//! `--shard-id N` stamps this process's identity in a shard fleet into
//! its stats and snapshots (requests route through the `atlas-shard`
//! proxy; see `docs/ARCHITECTURE.md`). `--cache-snapshot PATH` warm-starts
//! the embedding cache: the file is restored (entry-by-entry validated,
//! never fatal) before serving and rewritten when the process drains,
//! on EOF in stdio mode and on SIGINT or SIGTERM in TCP mode.

use std::process::ExitCode;
use std::sync::Arc;

use atlas_core::Precision;
use atlas_serve::reactor::{serve_lines, ReactorConfig, ReactorPool};
use atlas_serve::{AtlasService, ModelCatalog, ModelRegistry, ServiceConfig};

struct Args {
    registry: String,
    models: Vec<String>,
    default_model: Option<String>,
    list: bool,
    workers: usize,
    cache_mb: f64,
    precision: Precision,
    tcp: Option<String>,
    max_conns: usize,
    reactor_threads: usize,
    shard_id: Option<u32>,
    cache_snapshot: Option<String>,
    model_quotas: Vec<(String, usize)>,
    workload_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        registry: String::new(),
        models: Vec::new(),
        default_model: None,
        list: false,
        workers: 4,
        cache_mb: 256.0,
        precision: Precision::F64,
        tcp: None,
        max_conns: ReactorConfig::default().max_connections,
        reactor_threads: 1,
        shard_id: None,
        cache_snapshot: None,
        model_quotas: Vec::new(),
        workload_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--registry" => args.registry = value("--registry")?,
            "--model" => args.models.push(value("--model")?),
            "--default-model" => args.default_model = Some(value("--default-model")?),
            "--list" => args.list = true,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-mb" => {
                args.cache_mb = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-mb: {e}"))?;
                if !args.cache_mb.is_finite() || args.cache_mb < 0.0 {
                    return Err("--cache-mb must be a finite, non-negative number".into());
                }
            }
            "--model-quota" => {
                let spec = value("--model-quota")?;
                let (name, k) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model-quota `{spec}`: expected NAME=K"))?;
                let k: usize = k
                    .parse()
                    .map_err(|e| format!("--model-quota {name}: {e}"))?;
                args.model_quotas.push((name.to_owned(), k));
            }
            "--precision" => {
                args.precision = value("--precision")?
                    .parse()
                    .map_err(|e| format!("--precision: {e}"))?;
            }
            "--workload-file" => args.workload_file = Some(value("--workload-file")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--reactor-threads" => {
                args.reactor_threads = value("--reactor-threads")?
                    .parse()
                    .map_err(|e| format!("--reactor-threads: {e}"))?;
                if args.reactor_threads == 0 {
                    return Err("--reactor-threads must be positive".into());
                }
            }
            "--shard-id" => {
                args.shard_id = Some(
                    value("--shard-id")?
                        .parse()
                        .map_err(|e| format!("--shard-id: {e}"))?,
                );
            }
            "--cache-snapshot" => args.cache_snapshot = Some(value("--cache-snapshot")?),
            "--help" | "-h" => {
                println!(
                    "usage: serve --registry DIR (--model SPEC [--model SPEC ...] \
                     [--default-model NAME] [--workers N] [--cache-mb MIB] \
                     [--precision f64|f32] \
                     [--model-quota NAME=K ...] [--workload-file PATH] \
                     [--tcp ADDR] [--max-conns N] [--reactor-threads N] \
                     [--shard-id N] [--cache-snapshot PATH] | --list)\n\
                     SPEC is NAME, ALIAS=NAME, or ALIAS=PATH (an .atlas.json file)\n\
                     --cache-mb is each model's cache budget in MiB; decimals \
                     are allowed\n\
                     --precision f32 stores cached embedding rows as f32 (computed \
                     in f64, then narrowed): half the embedding bytes, so the --cache-mb \
                     budget holds more traces\n\
                     --model-quota caps workers tied up in NAME's cold requests \
                     (default: workers / hosted models)\n\
                     --workload-file journals register_workload calls and replays \
                     them at startup\n\
                     --reactor-threads runs N epoll reactors with SO_REUSEPORT \
                     listeners (TCP mode)\n\
                     --shard-id stamps this process's shard identity into stats \
                     and snapshots\n\
                     --cache-snapshot restores the embedding cache at startup and \
                     rewrites it on drain (stdio: EOF; TCP: SIGINT or SIGTERM)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.registry.is_empty() {
        return Err("--registry is required".into());
    }
    if !args.list && args.models.is_empty() {
        return Err("either --model SPEC or --list is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // Block the drain signals before the first thread starts, so every
    // worker and reactor inherits the mask and only `sigwait` sees them.
    let drain_signals = args.tcp.is_some().then(sig::block);

    let registry = match ModelRegistry::open(&args.registry) {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        match registry.list() {
            Ok(names) => {
                for name in names {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Assemble the catalog: every --model spec is validated (format
    // version + config fingerprint) before the service starts.
    let mut catalog = ModelCatalog::new();
    for spec in &args.models {
        match catalog.load_spec(&registry, spec) {
            Ok(name) => eprintln!("loaded model `{name}` (from `{spec}`)"),
            Err(e) => {
                eprintln!("error: --model {spec}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(name) = &args.default_model {
        if let Err(e) = catalog.set_default(name) {
            eprintln!("error: --default-model {name}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let service = match AtlasService::start_catalog(
        catalog,
        ServiceConfig {
            workers: args.workers,
            embedding_cache_bytes: (args.cache_mb * (1u64 << 20) as f64) as usize,
            precision: args.precision,
            model_quotas: args.model_quotas.iter().cloned().collect(),
            workload_file: args.workload_file.as_ref().map(Into::into),
            shard_id: args.shard_id,
            ..ServiceConfig::default()
        },
    ) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hosted: Vec<String> = service.models().into_iter().map(|m| m.name).collect();
    eprintln!(
        "serving {} model(s) [{}] (default `{}`) with {} workers at {} precision",
        hosted.len(),
        hosted.join(", "),
        service.default_model(),
        args.workers,
        args.precision,
    );

    // Warm start: re-admit a previous run's cache snapshot before the
    // first request arrives. Never fatal — a bad file is a cold start.
    if let Some(path) = &args.cache_snapshot {
        let report = service.restore_cache(path);
        eprintln!(
            "cache snapshot {path}: restored {} entries, skipped {}",
            report.restored, report.skipped,
        );
    }

    let code = match (&args.tcp, drain_signals) {
        (Some(addr), Some(signals)) => serve_tcp(
            Arc::clone(&service),
            addr,
            args.max_conns,
            args.reactor_threads,
            &signals,
        ),
        _ => serve_stdio(&service),
    };

    // Drain: persist the warm cache so the next run of this shard can
    // answer its first repeat request without recomputing anything.
    if let Some(path) = &args.cache_snapshot {
        match service.snapshot_cache(path) {
            Ok(n) => eprintln!("cache snapshot {path}: wrote {n} entries"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    code
}

fn serve_stdio(service: &AtlasService) -> ExitCode {
    let code = match serve_lines(service, std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: stdio: {e}");
            ExitCode::FAILURE
        }
    };
    let stats = service.stats();
    eprintln!(
        "served {} requests ({} errors); embedding cache {}/{} hits, {}/{} bytes",
        stats.requests,
        stats.errors,
        stats.embedding_cache.hits,
        stats.embedding_cache.hits + stats.embedding_cache.misses,
        stats.embedding_cache.weight,
        stats.embedding_cache.budget,
    );
    for m in &stats.models {
        eprintln!(
            "  model `{}`: {} requests, {} embeddings computed, \
             {} head rows evaluated ({} reused), cache {}/{} bytes",
            m.model,
            m.requests,
            m.embeddings_computed,
            m.head_rows_evaluated,
            m.head_rows_reused,
            m.embedding_cache.weight,
            m.embedding_cache.budget,
        );
    }
    code
}

fn serve_tcp(
    service: Arc<AtlasService>,
    addr: &str,
    max_conns: usize,
    threads: usize,
    signals: &sig::SigSet,
) -> ExitCode {
    let pool = match ReactorPool::spawn(
        service,
        addr,
        ReactorConfig {
            max_connections: max_conns,
            ..ReactorConfig::default()
        },
        threads,
    ) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "listening on {} ({} epoll reactor(s), {}, max {max_conns} connections each)",
        pool.addr(),
        threads,
        if pool.reuseport() {
            "SO_REUSEPORT"
        } else {
            "shared accept queue"
        },
    );
    // Main parks here until SIGINT or SIGTERM; the process runs at
    // workers + reactors + 1 OS threads regardless of connection count.
    eprintln!("caught signal {}: draining", sig::wait(signals));
    match pool.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: reactor: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The drain signals, SIGINT and SIGTERM (Linux; declared here as the
/// reactor declares its epoll calls).
mod sig {
    /// glibc's and musl's `sigset_t`: 1024 bits, all clear when empty.
    #[repr(C)]
    pub struct SigSet([u64; 16]);

    extern "C" {
        fn sigaddset(set: *mut SigSet, signum: i32) -> i32;
        fn pthread_sigmask(how: i32, set: *const SigSet, old: *mut SigSet) -> i32;
        fn sigwait(set: *const SigSet, signum: *mut i32) -> i32;
    }

    /// Block SIGINT (2) and SIGTERM (15) in the calling thread and every
    /// thread it starts later, and return the set for [`wait`].
    pub fn block() -> SigSet {
        let mut set = SigSet([0; 16]);
        // SAFETY: `set` is a valid `sigset_t`; a null `old` is allowed.
        // With valid arguments (how 0 is SIG_BLOCK) none of these fails.
        unsafe {
            sigaddset(&mut set, 2);
            sigaddset(&mut set, 15);
            pthread_sigmask(0, &set, std::ptr::null_mut());
        }
        set
    }

    /// Wait until one of `set`'s signals arrives and return its number.
    pub fn wait(set: &SigSet) -> i32 {
        let mut signum = 0;
        // SAFETY: both pointers are valid; a valid set cannot fail.
        unsafe { sigwait(set, &mut signum) };
        signum
    }
}
