//! Workload inputs and set-up: seeded audit-log generators, the durable
//! restart image of a read store, and the set-up timings they report.

use std::sync::Arc;
use std::time::Instant;

use raptor_cases::CaseSpec;
use threatraptor::audit::sim::{generate_background, BackgroundProfile, Simulator};
use threatraptor::audit::{reduce, LogParser, ParsedLog, SyscallRecord};
use threatraptor::common::error::Result;
use threatraptor::common::io::MemFs;
use threatraptor::common::time::{Duration, Timestamp};
use threatraptor::engine::{CKPT_FILE, WAL_FILE};
use threatraptor::{obs, DurablePolicy, ThreatRaptor};

use crate::util::{rss_mb, Acc};

/// Audit records of one Table IV case at noise scale 1.0. Mirrors
/// `raptor_cases::build_case(spec, 1.0, seed)` step for step, so that
/// simulation and parse/reduce can be timed apart (the benchmark's test
/// checks the two logs agree).
pub fn case_records(spec: &CaseSpec, seed: u64) -> Vec<SyscallRecord> {
    let mut sim = Simulator::new(seed, Timestamp::from_secs(1_523_000_000));
    let sessions = (spec.noise_sessions as f64).max(1.0) as usize;
    generate_background(&mut sim, &BackgroundProfile { users: 15, sessions, ..Default::default() });
    sim.advance(Duration::from_secs(30));
    (spec.attack)(&mut sim);
    sim.finish()
}

/// Audit records of the corpus scenario at ~15x background (8 users ×
/// 1,200 sessions) with the Figure-2 data leak staged at the end.
pub fn scaled_records(seed: u64) -> Vec<SyscallRecord> {
    let mut sim = Simulator::new(seed, Timestamp::from_secs(1_500_000_000));
    generate_background(
        &mut sim,
        &BackgroundProfile { users: 8, sessions: 1200, ..Default::default() },
    );
    let shell = sim.boot_process("/bin/bash", "root");
    let tar = sim.spawn(shell, "/bin/tar", "tar");
    sim.read_file(tar, "/etc/passwd", 4096, 4);
    sim.write_file(tar, "/tmp/upload.tar", 4096, 4);
    sim.exit(tar);
    let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
    sim.read_file(curl, "/tmp/upload.tar", 4096, 2);
    let fd = sim.connect(curl, "192.168.29.128", 443);
    sim.send(curl, fd, 4096, 4);
    sim.exit(curl);
    sim.finish()
}

/// Independent hosts of the ~15x scenario in a `query-15x` run. Each
/// query's cost depends on the generated data; averaging over four hosts
/// halves the run-to-run spread that one seed's data adds.
pub const HOSTS: u64 = 4;

/// The simulator seeds of a run's `hosts` hosts.
pub fn host_seeds(seed: u64, hosts: u64) -> impl Iterator<Item = u64> {
    (0..hosts).map(move |h| seed.wrapping_mul(hosts).wrapping_add(h))
}

/// The CTI report of the leak staged in [`scaled_records`].
pub const LEAK_REPORT: &str = "\
As a first step, the attacker used /bin/tar to read user credentials \
from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. \
Finally, the attacker used /usr/bin/curl to read the data from /tmp/upload.tar. \
He leaked the data back to the C2 host by using /usr/bin/curl to connect to 192.168.29.128.";

/// Simulates, then parses and reduces, recording both timings.
pub fn generate(acc: &mut Acc, simulate: impl FnOnce() -> Vec<SyscallRecord>) -> ParsedLog {
    let t = Instant::now();
    let records = simulate();
    acc.push("setup.simulate_ms", ms(t));
    let t = Instant::now();
    let mut log = LogParser::parse(&records);
    reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD);
    acc.push("audit.parse_reduce_ms", ms(t));
    log
}

/// Bulk-loads a log into a batch system, recording load time and the
/// resident memory the load added.
pub fn load(acc: &mut Acc, log: &ParsedLog) -> Result<ThreatRaptor> {
    let rss0 = rss_mb();
    let t = Instant::now();
    let raptor = ThreatRaptor::from_log(log)?;
    acc.push("engine.load_ms", ms(t));
    acc.push("engine.load_rss_mb", (rss_mb() - rss0).max(0.0));
    Ok(raptor)
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The durability policy of every restart image: checkpoints only when
/// asked, so the image is exactly one checkpoint and an empty WAL.
pub const IMAGE_POLICY: DurablePolicy = DurablePolicy { checkpoint_every: 0 };

/// A read store's durable restart image: the whole log ingested as one
/// committed epoch into a durable system over `MemFs`, then checkpointed.
pub struct Image {
    pub fs: Arc<MemFs>,
    /// Relational rows and graph nodes a restart must get back.
    pub rows: usize,
    pub nodes: usize,
}

/// Builds a restart image, recording the write path of its one epoch
/// (insert, standing step with no standing queries, WAL commit) the same
/// way the streaming workload records each of its epochs.
pub fn build_image(acc: &mut Acc, log: &ParsedLog, trace: bool) -> Result<Image> {
    let fs = Arc::new(MemFs::new());
    let mut raptor = ThreatRaptor::open_with_fs(fs.clone(), IMAGE_POLICY)?;
    let session = raptor.durable_mut().expect("open_with_fs builds a durable system");
    obs::trace().clear();
    obs::trace().set_enabled(trace);
    let t0 = obs::now_ns();
    let report = session.ingest(&log.entities, &log.events);
    let wall = obs::now_ns() - t0;
    obs::trace().set_enabled(false);
    let spans = obs::trace().snapshot();
    obs::trace().clear();
    crate::stream::record_epoch_write_path(acc, wall, &spans, &report?);
    let wal_bytes = fs.snapshot(WAL_FILE).len();
    raptor.checkpoint()?;
    let ckpt_bytes = fs.snapshot(CKPT_FILE).len();
    let events = log.events.len().max(1) as f64;
    acc.push("durable.wal_bytes", wal_bytes as f64);
    acc.push("durable.wal_events", events);
    acc.push("durable.ckpt_bytes", ckpt_bytes as f64);
    acc.push("durable.ckpt_events", events);
    let engine = raptor.engine();
    Ok(Image { fs, rows: engine.stores.rel.total_rows(), nodes: engine.stores.graph.node_count() })
}

/// Reopens a restart image (the timed recovery) and checks that the
/// recovered system is the one that was checkpointed.
pub fn restart(image: &Image) -> Result<(f64, ThreatRaptor, bool)> {
    let t = Instant::now();
    let raptor = ThreatRaptor::open_with_fs(image.fs.clone(), IMAGE_POLICY)?;
    let wall = ms(t);
    let report = raptor.recovery_report().expect("durable system has a recovery report");
    let engine = raptor.engine();
    let ok = report.checkpoint_found
        && report.wal_bytes_discarded == 0
        && engine.stores.rel.total_rows() == image.rows
        && engine.stores.graph.node_count() == image.nodes;
    Ok((wall, raptor, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_records_match_build_case() {
        for spec in raptor_cases::all_cases() {
            let built = raptor_cases::build_case(spec, 1.0, 7);
            let log = generate(&mut Acc::default(), || case_records(spec, 7));
            assert_eq!(log.entities.len(), built.log.entities.len(), "{}", spec.id);
            assert_eq!(log.events, built.log.events, "{}", spec.id);
        }
    }
}
