//! The `atlas-shard` binary: the shard fleet's front door.
//!
//! ```text
//! atlas-shard --tcp ADDR --shard ID=ADDR [--shard ID=ADDR ...]
//!             [--vnodes N] [--max-conns N] [--reactor-threads N]
//! ```
//!
//! Routes every `predict` line to the serve process owning its trace
//! key on a consistent-hash ring (see `atlas_serve::shard`), so repeat
//! requests always land on the shard whose embedding cache is warm for
//! them. `shard_map` answers the full ring; `stats` answers the proxy's
//! own counters; per-shard verbs (`models`, `load_model`, ...) must be
//! addressed to the shard's own port and get a structured error here.
//!
//! The proxy reuses the exact same epoll reactor (and `--reactor-threads`
//! pool) as `serve` itself, and runs on `--reactor-threads` + 1 threads:
//! each reactor dials each shard (resolved once, at startup) on first use
//! and re-dials after a shard restart.

use std::process::ExitCode;
use std::sync::Arc;

use atlas_serve::reactor::{ReactorConfig, ReactorPool};
use atlas_serve::shard::{ShardProxy, DEFAULT_VNODES};
use atlas_serve::ShardInfo;

struct Args {
    tcp: String,
    shards: Vec<ShardInfo>,
    max_conns: usize,
    reactor_threads: usize,
    default_model: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: String::new(),
        shards: Vec::new(),
        max_conns: ReactorConfig::default().max_connections,
        reactor_threads: 1,
        default_model: None,
    };
    let mut vnodes = DEFAULT_VNODES;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--tcp" => args.tcp = value("--tcp")?,
            "--shard" => {
                let spec = value("--shard")?;
                let (id, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--shard `{spec}`: expected ID=ADDR"))?;
                let id: u32 = id.parse().map_err(|e| format!("--shard {spec}: {e}"))?;
                args.shards.push(ShardInfo {
                    id,
                    addr: addr.to_owned(),
                    vnodes: 0, // filled from --vnodes below
                });
            }
            "--vnodes" => {
                vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?;
                if vnodes == 0 {
                    return Err("--vnodes must be positive".into());
                }
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--default-model" => args.default_model = Some(value("--default-model")?),
            "--reactor-threads" => {
                args.reactor_threads = value("--reactor-threads")?
                    .parse()
                    .map_err(|e| format!("--reactor-threads: {e}"))?;
                if args.reactor_threads == 0 {
                    return Err("--reactor-threads must be positive".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: atlas-shard --tcp ADDR --shard ID=ADDR [--shard ID=ADDR ...] \
                     [--vnodes N] [--max-conns N] [--reactor-threads N] [--default-model NAME]\n\
                     routes predict requests across serve processes by trace key \
                     (consistent hashing, N vnodes per shard)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.tcp.is_empty() {
        return Err("--tcp is required".into());
    }
    if args.shards.is_empty() {
        return Err("at least one --shard ID=ADDR is required".into());
    }
    for shard in &mut args.shards {
        shard.vnodes = vnodes;
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
    let proxy = match ShardProxy::new(args.shards) {
        Ok(proxy) => {
            let proxy = match args.default_model {
                Some(name) => proxy.with_default_model(name),
                None => proxy,
            };
            Arc::new(proxy)
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for shard in proxy.ring().shards() {
        eprintln!(
            "shard {} -> {} ({} vnodes)",
            shard.id, shard.addr, shard.vnodes
        );
    }
    let pool = match ReactorPool::spawn(
        proxy,
        args.tcp.as_str(),
        ReactorConfig {
            max_connections: args.max_conns,
            ..ReactorConfig::default()
        },
        args.reactor_threads,
    ) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: bind {}: {e}", args.tcp);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "shard proxy listening on {} ({} reactor(s), {})",
        pool.addr(),
        args.reactor_threads,
        if pool.reuseport() {
            "SO_REUSEPORT"
        } else {
            "shared accept queue"
        },
    );
    match pool.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: reactor: {e}");
            ExitCode::FAILURE
        }
    }
}
