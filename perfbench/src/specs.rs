//! Seeded workload inputs: the program only ever sees these specs.

use oraclesize_runtime::spec::to_ppm;
use oraclesize_runtime::{AdviceSpec, CellSpec, FaultSpec, InstanceSpec, SchedulerSpec, SweepSpec};
use oraclesize_sim::SchedulerKind;

/// A splitmix64 stream: every seeded choice the benchmark makes.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Graph orders of the sweep's shared instances. Fixed, so every seed
/// does the same amount of work; the seed draws the graphs themselves.
pub const SWEEP_ORDERS: [u64; 4] = [128, 256, 384, 512];

/// Mean degree of the random graphs (edge probability `DEGREE / n`).
const DEGREE: u64 = 8;

/// Oracles each shared graph is labeled with, in instance order: the
/// tree-wakeup advice, scheme-b's light tree, and the self-healing
/// wakeup advice.
const ORACLES: [&str; 3] = ["spanning-tree", "light-tree", "robust-wakeup"];

fn random_instances(spec: &mut SweepSpec, rng: &mut SplitMix, orders: &[u64], oracles: &[&str]) {
    for &n in orders {
        let seed = rng.next_u64();
        for &oracle in oracles {
            spec.instances.push(InstanceSpec {
                family: "random-connected".to_string(),
                n,
                seed,
                p_ppm: Some(to_ppm(DEGREE as f64 / n as f64)),
                source: 0,
                oracle: oracle.to_string(),
            });
        }
    }
}

fn cell(label: String, instance: u64, scheme: &str, mode: &str, seed: u64) -> CellSpec {
    CellSpec {
        label,
        instance,
        scheme: scheme.to_string(),
        retries: None,
        mode: mode.to_string(),
        scheduler: None,
        anonymous: false,
        max_message_bits: None,
        quiescence_polls: None,
        seed,
        faults: FaultSpec::default(),
    }
}

/// One T10 block on graph `g`: scheduler × anonymity × (tree-wakeup,
/// scheme-b), messages bounded to 0 bits — the committed T10 matrix.
fn t10_block(spec: &mut SweepSpec, rng: &mut SplitMix, g: u64, tag: &str) {
    for kind in SchedulerKind::sweep(rng.next_u64()) {
        for anonymous in [false, true] {
            for (scheme, oracle, mode) in
                [("tree-wakeup", 0, "wakeup"), ("scheme-b", 1, "broadcast")]
            {
                let seed = spec.cells.len() as u64;
                let label = format!("{tag}/{scheme}/{}/anon={anonymous}", kind.name());
                let mut c = cell(label, 3 * g + oracle, scheme, mode, seed);
                c.scheduler = Some(SchedulerSpec::of(kind));
                c.anonymous = anonymous;
                c.max_message_bits = Some(0);
                spec.cells.push(c);
            }
        }
    }
}

/// One T20-style block on graph `g`: message drops under the plain and
/// the retrying broadcast, and garbage advice under the brittle and the
/// self-healing wakeup.
fn t20_block(spec: &mut SweepSpec, rng: &mut SplitMix, g: u64, tag: &str) {
    for drop in [0.1, 0.3] {
        for (scheme, retries) in [("tree-wakeup", None), ("retry-broadcast", Some(2))] {
            let seed = spec.cells.len() as u64;
            let label = format!("{tag}/drop={drop}/{scheme}");
            let mut c = cell(label, 3 * g, scheme, "broadcast", seed);
            c.retries = retries;
            c.quiescence_polls = Some(16);
            c.faults = FaultSpec {
                seed: rng.next_u64(),
                drop_ppm: to_ppm(drop),
                ..FaultSpec::default()
            };
            spec.cells.push(c);
        }
    }
    for (scheme, oracle) in [("tree-wakeup", 0), ("robust-tree-wakeup", 2)] {
        let seed = spec.cells.len() as u64;
        let label = format!("{tag}/garbage=0.25/{scheme}");
        let mut c = cell(label, 3 * g + oracle, scheme, "wakeup", seed);
        c.faults = FaultSpec {
            seed: rng.next_u64(),
            advice: AdviceSpec::Garbage {
                prob_ppm: to_ppm(0.25),
                bits: 40,
            },
            ..FaultSpec::default()
        };
        spec.cells.push(c);
    }
}

/// The `sweep-20k` spec: at least `cells` cells of T10 and T20-style
/// blocks, dealt round-robin over [`SWEEP_ORDERS`] random graphs drawn
/// from `seed`.
pub fn sweep_spec(seed: u64, cells: usize) -> SweepSpec {
    let mut rng = SplitMix::new(seed);
    let mut spec = SweepSpec::new("perf-sweep", seed);
    random_instances(&mut spec, &mut rng, &SWEEP_ORDERS, &ORACLES);
    let mut trial = 0u64;
    while spec.cells.len() < cells {
        for g in 0..SWEEP_ORDERS.len() as u64 {
            let tag = format!("g{g}/t{trial}");
            t10_block(&mut spec, &mut rng, g, &tag);
            t20_block(&mut spec, &mut rng, g, &tag);
        }
        trial += 1;
    }
    spec
}

/// Cells per `service-loopback` job: eight T10 blocks.
pub const JOB_BLOCKS: u64 = 8;

/// Job `index` of a `service-loopback` run: eight T10 blocks on one
/// n = 128 random graph. Graph, scheduler seeds and name all derive from
/// `(seed, index)`, so every job of a run has its own digest.
pub fn job_spec(seed: u64, index: u64) -> SweepSpec {
    let mut rng = SplitMix::new(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut spec = SweepSpec::new(format!("perf-job-{index}"), seed);
    // T10 blocks use only the first two oracles.
    random_instances(&mut spec, &mut rng, &[128], &ORACLES[..2]);
    for trial in 0..JOB_BLOCKS {
        t10_block(&mut spec, &mut rng, 0, &format!("t{trial}"));
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_seeded_and_sized() {
        let a = sweep_spec(7, 1000);
        assert_eq!(a, sweep_spec(7, 1000));
        assert_ne!(a.digest(), sweep_spec(8, 1000).digest());
        assert!(a.cells.len() >= 1000 && a.cells.len() < 1000 + 4 * 22);
        assert!(a.validate().is_ok());

        let jobs: Vec<u64> = (0..50).map(|i| job_spec(3, i).digest()).collect();
        let mut distinct = jobs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), jobs.len());
        assert_eq!(job_spec(3, 0).cells.len(), 128);
    }
}
