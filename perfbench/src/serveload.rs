//! `serve-mixed`: a closed loop of two clients against an in-process
//! `smtsim-serve` server with a journal cache, through `Server::launch`
//! and `http_post`.
//!
//! The journal is pre-filled (untimed) by the server itself with the
//! repeat set. The schedule, drawn from the seed, is a series of
//! rounds, each in three phases that both clients enter together (a
//! barrier separates them):
//!
//! 1. client 0's turn: `ROUND_HITS` requests for repeat configs (reads:
//!    cache hits), then one new config (a write: the miss simulates and
//!    appends to the journal);
//! 2. client 1's turn, the same with its own new config;
//! 3. one new config that both clients send at once (one miss, one
//!    coalesced follower).
//!
//! Outside the coalescing phase one request is in flight at a time, and
//! the set-up samples and the loop run pinned to one CPU (`pin.rs`), so
//! a latency is the cost of its path rather than of waiting for another
//! request, another CPU or the host scheduler. Rounds continue until
//! `seconds` have passed; the end-to-end figures come from `WINDOWS`
//! equal stretches of that time.
//!
//! Every answer is checked against a direct
//! `Simulator::run(..).to_json()` of the same config (hits as they
//! arrive, new configs after the loop, untimed), and against the
//! committed digest when the seed has one.

use crate::check::Checker;
use crate::jobs::{serve_body, Rng, ServeKey, REPEAT_SET};
use crate::pin::Cpus;
use crate::pool;
use crate::stats::{cpu_ticks, host_ref_s, now, stolen_share};
use crate::window::{Window, WINDOWS};
use smtsim_core::json::parse_json;
use smtsim_core::{ResultCache, SimResult, Simulator, ToJson};
use smtsim_serve::request::parse_sim_request;
use smtsim_serve::{http_get, http_post, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Hit requests per client per round.
const ROUND_HITS: u64 = 80;
/// Client socket timeout.
const TIMEOUT_MS: u64 = 10_000;
/// Server launches timed for `setup_s`.
const SETUPS: usize = 32;

/// One answered (or failed) request. Answers to repeat configs are
/// checked as they arrive and keep no body; the others keep theirs
/// until the direct runs they are compared with exist.
struct Answer {
    key: ServeKey,
    latency_s: f64,
    /// When the answer arrived.
    done: Instant,
    /// `X-Cache` of a 200 answer, or why the request failed.
    outcome: Result<Cache, String>,
    body: Option<String>,
}

/// How the service says it produced an answer (`X-Cache`).
#[derive(Clone, Copy)]
enum Cache {
    Hit,
    Miss,
    Coalesced,
}

/// Timed results of `serve-mixed`.
pub struct ServeRun {
    /// Set-up samples (seconds), each the mean of one launch on every
    /// CPU in turn, so that a slow CPU moves every sample alike.
    pub setup: Vec<f64>,
    /// The timed windows.
    pub windows: Vec<Window>,
    /// Host reference probe samples.
    pub refs: Vec<f64>,
    /// `ResultCache::load_from` on the pre-filled journal (seconds).
    pub cache_load: Vec<f64>,
    /// Cold latency minus direct simulate time, per miss (seconds).
    pub cold_overhead: Vec<f64>,
    /// Hits, misses (both from `/healthz` after the loop), coalesced
    /// answers seen, shed and retries (from `/healthz`).
    pub counters: [u64; 5],
}

fn server_config(journal: &Path) -> ServerConfig {
    ServerConfig {
        cache_path: Some(journal.to_path_buf()),
        request_timeout_ms: TIMEOUT_MS,
        ..ServerConfig::default()
    }
}

fn stop(server: ServerHandle) {
    server.begin_drain();
    server.wait_for_drain();
}

/// Launch on `journal` and wait for the first `/healthz` 200.
fn launch_ready(journal: &Path) -> Result<(ServerHandle, f64), String> {
    let start = now();
    let server = Server::launch(server_config(journal))?;
    let addr = server.bound_addr();
    loop {
        match http_get(&addr, "/healthz", TIMEOUT_MS) {
            Ok(r) if r.status == 200 => break,
            _ if start.elapsed() > Duration::from_secs(10) => {
                stop(server);
                return Err(String::from("server never became healthy"));
            }
            _ => std::thread::yield_now(),
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Send one request. When `expected` holds the key's direct JSON,
/// check the answer now and drop its body.
fn post(addr: &str, seed: u64, key: ServeKey, expected: &BTreeMap<ServeKey, String>) -> Answer {
    let request = serve_body(seed, key);
    let start = now();
    let reply = http_post(addr, "/run", &request, TIMEOUT_MS);
    let latency_s = start.elapsed().as_secs_f64();
    let (outcome, body) = match reply {
        Err(e) => (Err(e), None),
        Ok(r) if r.status != 200 => (Err(format!("HTTP {}", r.status)), None),
        Ok(r) => {
            let cache = match r.header("x-cache") {
                Some("hit") => Ok(Cache::Hit),
                Some("miss") => Ok(Cache::Miss),
                Some("coalesced") => Ok(Cache::Coalesced),
                other => Err(format!("unexpected X-Cache {other:?}")),
            };
            match (cache, expected.get(&key)) {
                (Err(m), _) => (Err(m), None),
                (Ok(cache), Some(want)) => match body_mismatch(&r.body, want) {
                    None => (Ok(cache), None),
                    Some(m) => (Err(m), None),
                },
                (Ok(cache), None) => (Ok(cache), Some(r.body)),
            }
        }
    };
    Answer {
        key,
        latency_s,
        done: now(),
        outcome,
        body,
    }
}

/// Why a served body differs from the direct run's JSON (the server
/// appends a newline), or `None` when it is byte-identical.
fn body_mismatch(body: &str, want: &str) -> Option<String> {
    match body.strip_suffix('\n') {
        Some(json) if json == want => None,
        Some(_) => Some(String::from("answer differs from the direct run")),
        None => Some(String::from("answer lacks its trailing newline")),
    }
}

/// One client's closed loop. Both clients run the same number of
/// rounds: the barrier leader decides, after each round, whether the
/// deadline has passed.
fn client(
    addr: &str,
    seed: u64,
    id: u64,
    expected: &BTreeMap<ServeKey, String>,
    deadline: Instant,
    (barrier, done, cpus, ticks): (&Barrier, &AtomicBool, Option<&Cpus>, &TickLog),
) -> Vec<Answer> {
    let mut rng = Rng::new(seed ^ (id + 1).wrapping_mul(0x9e37_79b9));
    let mut answers = Vec::new();
    for round in 0.. {
        for turn in 0..2 {
            if turn == id {
                for _ in 0..ROUND_HITS {
                    let key = ServeKey::Repeat(rng.below(REPEAT_SET));
                    answers.push(post(addr, seed, key, expected));
                }
                answers.push(post(addr, seed, ServeKey::Cold(2 * round + id), expected));
            }
            barrier.wait();
        }
        answers.push(post(addr, seed, ServeKey::Coalesced(round), expected));
        if barrier.wait().is_leader() {
            log_ticks(ticks);
            done.store(now() >= deadline, Ordering::SeqCst);
            if let Some(c) = cpus {
                c.pin_all(round as usize + 1);
            }
        }
        barrier.wait();
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    answers
}

/// Host CPU ticks (`cpu_ticks`) read at the end of every round.
type TickLog = Mutex<Vec<(Instant, Option<(u64, u64)>)>>;

fn log_ticks(log: &TickLog) {
    let entry = (now(), cpu_ticks());
    log.lock()
        .expect("tick log lock is never poisoned")
        .push(entry);
}

/// Stolen share of the host's CPU time over the rounds spanning
/// `from..to`.
fn stolen_between(log: &[(Instant, Option<(u64, u64)>)], from: Instant, to: Instant) -> f64 {
    let before = log.iter().rev().find(|(t, _)| *t <= from).or(log.first());
    let after = log.iter().find(|(t, _)| *t >= to).or(log.last());
    match (before, after) {
        (Some(a), Some(b)) => stolen_share(a.1, b.1),
        _ => 0.0,
    }
}

/// Direct `Simulator::run` of one config: its JSON, committed
/// instructions and host seconds.
fn direct(seed: u64, key: ServeKey) -> Result<(String, u64, f64), String> {
    let (cfg, _) = parse_sim_request(&serve_body(seed, key))?;
    let start = now();
    let r: SimResult = Simulator::build(&cfg)
        .and_then(|s| s.run())
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok((r.to_json(), r.total_committed(), secs))
}

/// Run `direct` for every key on two threads.
fn direct_all(
    seed: u64,
    keys: &[ServeKey],
) -> BTreeMap<ServeKey, Result<(String, u64, f64), String>> {
    pool(keys.len(), 2, |i| (keys[i], direct(seed, keys[i])))
        .0
        .into_iter()
        .collect()
}

fn key_name(key: ServeKey) -> String {
    match key {
        ServeKey::Repeat(i) => format!("repeat/{i}"),
        ServeKey::Cold(i) => format!("cold/{i}"),
        ServeKey::Coalesced(i) => format!("coalesced/{i}"),
    }
}

/// The configs whose digests are committed for the default seed.
fn committed_keys() -> Vec<ServeKey> {
    (0..REPEAT_SET)
        .map(ServeKey::Repeat)
        .chain((0..COMMITTED_COLD).map(ServeKey::Cold))
        .chain((0..COMMITTED_COALESCED).map(ServeKey::Coalesced))
        .collect()
}

/// Cold configs with a committed digest (a run at the default seed
/// uses fewer; later ones are checked against direct runs only).
const COMMITTED_COLD: u64 = 1024;
/// Coalesced configs with a committed digest.
const COMMITTED_COALESCED: u64 = 512;

/// `(key, digest)` of every committed config at `seed` (for `--bless`).
pub fn digests(seed: u64) -> Vec<(String, String)> {
    let keys = committed_keys();
    direct_all(seed, &keys)
        .into_iter()
        .map(|(k, r)| {
            let d = match r {
                Ok((json, _, _)) => crate::expected::digest(&json),
                Err(e) => format!("error: {e}"),
            };
            (key_name(k), d)
        })
        .collect()
}

/// A working directory inside the build directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    /// Create a fresh directory next to the running executable.
    fn new() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let base = exe.parent().ok_or("executable has no directory")?;
        let dir = base.join(format!("perfbench-work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// Path of a file inside.
    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn healthz_counters(addr: &str) -> Result<[u64; 4], String> {
    let r = http_get(addr, "/healthz", TIMEOUT_MS)?;
    let v = parse_json(&r.body).map_err(|e| format!("healthz body: {e}"))?;
    let get = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    Ok([
        get("serve.cache_hits"),
        get("serve.cache_misses"),
        get("serve.shed_total"),
        get("serve.retries_total"),
    ])
}

/// Run `serve-mixed`.
pub fn run(seed: u64, seconds: f64, ck: &mut Checker) -> Result<ServeRun, String> {
    let work = WorkDir::new()?;
    let journal = work.file("journal.jsonl");
    let mut refs = vec![host_ref_s()];

    // Pre-fill the journal through the service, then check the
    // prefill answers against direct runs.
    let repeat: Vec<ServeKey> = (0..REPEAT_SET).map(ServeKey::Repeat).collect();
    let mut expected = BTreeMap::new();
    for (k, r) in direct_all(seed, &repeat) {
        match r {
            Ok((json, _, _)) => {
                ck.answer(&key_name(k), &json, None);
                expected.insert(k, json);
            }
            Err(e) => ck.fail(format!("{}: direct run failed: {e}", key_name(k))),
        }
    }
    let (server, _) = launch_ready(&journal)?;
    let addr = server.bound_addr();
    let prefill: Vec<Answer> = repeat
        .iter()
        .map(|&k| post(&addr, seed, k, &expected))
        .collect();
    stop(server);
    for a in &prefill {
        tally_answer(ck, a);
    }
    refs.push(host_ref_s());

    // Set-up samples restart on a copy of the pre-filled journal, half
    // before the timed loop and half after it.
    let prefilled = work.file("prefilled.jsonl");
    std::fs::copy(&journal, &prefilled).map_err(|e| format!("copy journal: {e}"))?;
    let mut setup = Vec::with_capacity(SETUPS);
    let mut cache_load = Vec::with_capacity(SETUPS);
    let pinned = Cpus::current();
    let cpus = pinned.as_ref();
    setup_samples(
        &prefilled,
        0..SETUPS / 2,
        cpus,
        &mut setup,
        &mut cache_load,
        ck,
    )?;

    // The timed closed loop.
    if let Some(c) = cpus {
        c.pin_all(0);
    }
    let (server, _) = launch_ready(&journal)?;
    let addr = server.bound_addr();
    let barrier = Barrier::new(2);
    let done = AtomicBool::new(false);
    let deadline = now() + Duration::from_secs_f64(seconds);
    let ticks: TickLog = Mutex::new(Vec::new());
    log_ticks(&ticks);
    let start = now();
    let mut answers: Vec<Answer> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|id| {
                let (addr, expected, barrier, done, ticks) =
                    (&addr, &expected, &barrier, &done, &ticks);
                s.spawn(move || {
                    client(
                        addr,
                        seed,
                        id,
                        expected,
                        deadline,
                        (barrier, done, cpus, ticks),
                    )
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let span = start.elapsed().as_secs_f64() / WINDOWS as f64;
    log_ticks(&ticks);
    let ticks = ticks.into_inner().expect("tick log lock is never poisoned");
    let health = healthz_counters(&addr);
    stop(server);
    refs.push(host_ref_s());

    // Untimed: direct runs of every new config, then every answer. The
    // other half of the set-up samples is spread over the direct runs,
    // one turn of the CPUs between chunks of them, so that a burst of
    // host noise meets few samples.
    let fresh: Vec<ServeKey> = {
        let mut v: Vec<ServeKey> = answers
            .iter()
            .map(|a| a.key)
            .filter(|k| !matches!(k, ServeKey::Repeat(_)))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let per_turn = cpus.map_or(1, Cpus::count);
    let chunk = fresh.len().div_ceil((SETUPS / 2).div_ceil(per_turn)).max(1);
    let mut direct = BTreeMap::new();
    let mut turn = SETUPS / 2;
    for part in fresh.chunks(chunk) {
        if let Some(c) = cpus {
            c.unpin_all();
        }
        direct.extend(direct_all(seed, part));
        let end = (turn + per_turn).min(SETUPS);
        setup_samples(&prefilled, turn..end, cpus, &mut setup, &mut cache_load, ck)?;
        turn = end;
    }
    setup_samples(
        &prefilled,
        turn..SETUPS,
        cpus,
        &mut setup,
        &mut cache_load,
        ck,
    )?;
    drop(pinned);

    let mut sim_secs: BTreeMap<ServeKey, (u64, f64)> = BTreeMap::new();
    for (k, r) in direct {
        match r {
            Ok((json, committed, secs)) => {
                ck.answer(&key_name(k), &json, None);
                expected.insert(k, json);
                sim_secs.insert(k, (committed, secs));
            }
            Err(e) => ck.fail(format!("{}: direct run failed: {e}", key_name(k))),
        }
    }
    let mut out = ServeRun {
        setup: setup
            .chunks(per_turn)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect(),
        windows: (0..WINDOWS)
            .map(|i| {
                let from = start + Duration::from_secs_f64(span * i as f64);
                Window {
                    wall_s: span,
                    stolen: stolen_between(&ticks, from, from + Duration::from_secs_f64(span)),
                    ..Window::default()
                }
            })
            .collect(),
        refs,
        cache_load,
        cold_overhead: Vec::new(),
        counters: [0; 5],
    };
    let mut coalesced = 0;
    for a in &mut answers {
        if let (Ok(_), Some(body)) = (&a.outcome, a.body.take()) {
            let checked = match expected.get(&a.key) {
                Some(want) => body_mismatch(&body, want),
                None => Some(String::from("no direct result to compare with")),
            };
            if let Some(m) = checked {
                a.outcome = Err(m);
            }
        }
        tally_answer(ck, a);
        let Ok(cache) = a.outcome else { continue };
        let at = (a.done - start).as_secs_f64();
        let w = &mut out.windows[((at / span) as usize).min(WINDOWS - 1)];
        w.requests += 1;
        match cache {
            Cache::Hit => w.hit.push(a.latency_s),
            Cache::Miss => {
                w.cold.push(a.latency_s);
                w.sim_s += a.latency_s;
                if let Some(&(committed, secs)) = sim_secs.get(&a.key) {
                    w.committed += committed;
                    out.cold_overhead.push(a.latency_s - secs);
                }
            }
            Cache::Coalesced => coalesced += 1,
        }
    }
    match health {
        Ok([hits, misses, shed, retries]) => {
            out.counters = [hits, misses, coalesced, shed, retries]
        }
        Err(e) => ck.fail(format!("healthz: {e}")),
    }
    Ok(out)
}

/// One restart of the service on `journal` per turn, on that turn's CPU
/// (timed until the first `/healthz` 200), and one load of the journal
/// alone.
fn setup_samples(
    journal: &Path,
    turns: std::ops::Range<usize>,
    cpus: Option<&Cpus>,
    setup: &mut Vec<f64>,
    cache_load: &mut Vec<f64>,
    ck: &mut Checker,
) -> Result<(), String> {
    for turn in turns {
        if let Some(c) = cpus {
            c.pin_all(turn);
        }
        let (server, secs) = launch_ready(journal)?;
        setup.push(secs);
        stop(server);
        let start = now();
        let cache = ResultCache::load_from(journal);
        cache_load.push(start.elapsed().as_secs_f64());
        if cache.entry_count() == REPEAT_SET {
            ck.pass();
        } else {
            ck.fail(format!("journal holds {} entries", cache.entry_count()));
        }
    }
    Ok(())
}

/// Count one answer in the tally.
fn tally_answer(ck: &mut Checker, a: &Answer) {
    match &a.outcome {
        Ok(_) => ck.pass(),
        Err(m) => ck.fail(format!("{}: {m}", key_name(a.key))),
    }
}
