//! The shipped `serve` binary drains on SIGTERM in TCP mode: it exits 0
//! and writes its cache snapshot, and a restart on that snapshot answers
//! the same request from the cache without computing an embedding.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::{ModelRegistry, PredictResponse, StatsResponse};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A configuration small enough to train inside the test suite.
fn micro_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.cycles = 12;
    cfg.scale = 0.12;
    cfg.pretrain.steps = 10;
    cfg.pretrain.hidden_dim = 12;
    cfg.finetune.cycles_per_design = 4;
    cfg.finetune.gbdt.n_estimators = 12;
    cfg
}

/// A `serve` child process, killed if a failed assertion leaves it
/// running.
struct Server {
    child: Child,
    log: BufReader<ChildStderr>,
    addr: String,
}

impl Server {
    /// Start `serve` on an ephemeral port with one worker and one
    /// reactor, and return once it says where it listens.
    fn start(registry: &Path, snapshot: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .arg("--registry")
            .arg(registry)
            .args(["--model", "micro", "--workers", "1", "--tcp", "127.0.0.1:0"])
            .arg("--cache-snapshot")
            .arg(snapshot)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns serve");
        let mut log = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = log.read_line(&mut line).expect("reads stderr");
            assert!(n > 0, "exited before listening");
            if let Some((_, rest)) = line.split_once("listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("an address")
                    .to_owned();
            }
        };
        Server { child, log, addr }
    }

    fn ask(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connects");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("writes");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("reads");
        reply
    }

    /// SIGTERM the server and assert that it exits 0.
    fn drain(mut self) {
        // SAFETY: the pid is our own unreaped child.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let status = self.child.wait().expect("waits");
        let mut rest = String::new();
        self.log.read_to_string(&mut rest).expect("reads stderr");
        assert!(status.success(), "exited with {status}: {rest}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already-reaped children make both of these no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sigterm_drains_and_writes_a_snapshot_the_restart_answers_from() {
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let dir = std::env::temp_dir().join(format!("atlas-drain-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = dir.join("registry");
    ModelRegistry::open(&registry)
        .expect("opens")
        .save("micro", &trained.model, &cfg)
        .expect("saves");
    let snapshot = dir.join("cache.snapshot");
    let predict = r#"{"id":1,"design":"C2","workload":"W1","cycles":8}"#;

    let server = Server::start(&registry, &snapshot);
    // One worker, one reactor and main, however many connections.
    let status = std::fs::read_to_string(format!("/proc/{}/status", server.child.id()));
    assert!(status.expect("status").contains("Threads:\t3\n"));
    let cold: PredictResponse = serde_json::from_str(&server.ask(predict)).expect("a prediction");
    assert!(!cold.cache_hit);
    server.drain();
    let written = std::fs::read_to_string(&snapshot).expect("the drain wrote a snapshot");
    assert_eq!(written.lines().count(), 2, "a header and one entry");

    let server = Server::start(&registry, &snapshot);
    let warm: PredictResponse = serde_json::from_str(&server.ask(predict)).expect("a prediction");
    assert!(warm.cache_hit, "the restored entry answers");
    assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);
    let stats: StatsResponse =
        serde_json::from_str(&server.ask(r#"{"verb":"stats"}"#)).expect("stats");
    assert_eq!(stats.embeddings_computed, 0);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
