//! Property tests of the block manager: capacity invariants hold under
//! arbitrary insert/get/remove sequences, the indexed LRU picks the
//! exact victims the old linear scan picked, and the cluster's block
//! directory answers `locate` exactly as a scan of alive workers would.

use flint_engine::{BlockKey, BlockManager, Cluster, RddId, ShuffleId, WorkerId, WorkerSpec};
use flint_simtime::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Get(u32),
    Remove(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..30, 1u64..400).prop_map(|(k, b)| Op::Insert(k, b)),
            (0u32..30).prop_map(Op::Get),
            (0u32..30).prop_map(Op::Remove),
        ],
        0..60,
    )
}

fn key(i: u32) -> BlockKey {
    BlockKey::RddPart {
        rdd: RddId(0),
        part: i,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Memory and disk usage never exceed their capacities, and
    /// accounting stays consistent with the resident set.
    #[test]
    fn capacities_never_exceeded(ops in arb_ops(), mem in 100u64..800, disk in 100u64..800) {
        let mut bm = BlockManager::new(mem, disk);
        for op in ops {
            match op {
                Op::Insert(k, b) => {
                    let _ = bm.insert(key(k), Arc::new(vec![]), b);
                }
                Op::Get(k) => {
                    let _ = bm.get(&key(k));
                }
                Op::Remove(k) => {
                    let _ = bm.remove(&key(k));
                }
            }
            prop_assert!(bm.mem_used() <= mem, "mem {} > cap {mem}", bm.mem_used());
            prop_assert!(bm.disk_used() <= disk, "disk {} > cap {disk}", bm.disk_used());
        }
        // Every resident key is locatable and every located block is
        // accounted in exactly one tier.
        let mut mem_sum = 0;
        let mut disk_sum = 0;
        for k in bm.keys() {
            let (loc, bytes) = bm.peek(&k).expect("resident key must peek");
            match loc {
                flint_engine::BlockLocation::Memory => mem_sum += bytes,
                flint_engine::BlockLocation::Disk => disk_sum += bytes,
            }
        }
        prop_assert_eq!(mem_sum, bm.mem_used());
        prop_assert_eq!(disk_sum, bm.disk_used());
    }

    /// A block inserted and never evicted-by-overflow nor removed stays
    /// readable with identical contents.
    #[test]
    fn small_inserts_always_resident(keys in proptest::collection::vec(0u32..5, 1..10)) {
        // Five distinct keys of 10 bytes in a 1000-byte cache: no
        // eviction is ever necessary.
        let mut bm = BlockManager::new(1000, 1000);
        for k in &keys {
            bm.insert(key(*k), Arc::new(vec![]), 10);
        }
        for k in keys {
            prop_assert!(bm.get(&key(k)).is_some());
        }
    }

    /// The indexed LRU (`BTreeSet<(last_use, key)>`) selects the exact
    /// victim sequence — spills and drops, in order — that the original
    /// linear `min_by_key` scan selected, under randomized insert /
    /// touch / get / remove workloads that force heavy churn.
    #[test]
    fn indexed_lru_victims_match_linear_scan(
        ops in arb_churn_ops(),
        mem in 100u64..600,
        disk in 100u64..600,
    ) {
        let mut bm = BlockManager::new(mem, disk);
        let mut reference = LinearScanLru::new(mem, disk);
        for op in ops {
            match op {
                ChurnOp::Insert(k, b) => {
                    let got = bm.insert_traced(key(k), Arc::new(vec![]), b);
                    let want = reference.insert(key(k), b);
                    prop_assert_eq!(got.stored, want.stored, "stored for {:?}", key(k));
                    prop_assert_eq!(&got.spilled, &want.spilled, "spill victims");
                    prop_assert_eq!(&got.dropped, &want.dropped, "drop victims");
                }
                ChurnOp::Touch(k) => {
                    prop_assert_eq!(bm.touch(&key(k)), reference.touch(&key(k)));
                }
                ChurnOp::Get(k) => {
                    let got = bm.get(&key(k)).map(|(_, loc, vb)| (loc, vb));
                    prop_assert_eq!(got, reference.get(&key(k)));
                }
                ChurnOp::Remove(k) => {
                    prop_assert_eq!(bm.remove(&key(k)), reference.remove(&key(k)));
                }
            }
            prop_assert_eq!(bm.mem_used(), reference.mem_used);
            prop_assert_eq!(bm.disk_used(), reference.disk_used);
        }
        // Final resident sets agree tier-for-tier.
        for k in bm.keys() {
            prop_assert_eq!(bm.peek(&k), reference.peek(&k), "final state of {:?}", k);
        }
        prop_assert_eq!(bm.keys().len(), reference.mem.len() + reference.disk.len());
    }
}

#[derive(Debug, Clone)]
enum ChurnOp {
    Insert(u32, u64),
    Touch(u32),
    Get(u32),
    Remove(u32),
}

fn arb_churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..24, 1u64..300).prop_map(|(k, b)| ChurnOp::Insert(k, b)),
            (0u32..24, 1u64..300).prop_map(|(k, b)| ChurnOp::Insert(k, b)),
            (0u32..24).prop_map(ChurnOp::Touch),
            (0u32..24).prop_map(ChurnOp::Get),
            (0u32..24).prop_map(ChurnOp::Remove),
        ],
        0..120,
    )
}

#[derive(Debug, Clone, Copy)]
struct RefBlock {
    vbytes: u64,
    last_use: u64,
}

#[derive(Debug, Default)]
struct RefOutcome {
    stored: bool,
    spilled: Vec<(BlockKey, u64)>,
    dropped: Vec<(BlockKey, u64)>,
}

/// A faithful transcription of the pre-index `BlockManager`: plain
/// `HashMap` tiers, victims found by a full `min_by_key((last_use, key))`
/// scan, and the exact original clock-tick sequence (one tick per
/// insert attempt, a second tick when a block lands on disk, one tick
/// per get/touch even on a miss).
struct LinearScanLru {
    mem: HashMap<BlockKey, RefBlock>,
    disk: HashMap<BlockKey, RefBlock>,
    mem_used: u64,
    disk_used: u64,
    mem_cap: u64,
    disk_cap: u64,
    clock: u64,
}

impl LinearScanLru {
    fn new(mem_cap: u64, disk_cap: u64) -> Self {
        LinearScanLru {
            mem: HashMap::new(),
            disk: HashMap::new(),
            mem_used: 0,
            disk_used: 0,
            mem_cap,
            disk_cap,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn scan_victim(map: &HashMap<BlockKey, RefBlock>) -> Option<BlockKey> {
        map.iter()
            .min_by_key(|(k, b)| (b.last_use, **k))
            .map(|(k, _)| *k)
    }

    fn insert(&mut self, key: BlockKey, vbytes: u64) -> RefOutcome {
        let mut out = RefOutcome::default();
        if vbytes > self.mem_cap && vbytes > self.disk_cap {
            out.dropped.push((key, vbytes));
            return out;
        }
        self.remove(&key);
        let lu = self.tick();
        if vbytes <= self.mem_cap {
            while self.mem_used + vbytes > self.mem_cap {
                let Some(victim) = Self::scan_victim(&self.mem) else {
                    break;
                };
                let b = self.mem.remove(&victim).unwrap();
                self.mem_used -= b.vbytes;
                out.spilled.push((victim, b.vbytes));
                self.store_on_disk(victim, b.vbytes, &mut out.dropped);
            }
            if self.mem_used + vbytes <= self.mem_cap {
                self.mem.insert(
                    key,
                    RefBlock {
                        vbytes,
                        last_use: lu,
                    },
                );
                self.mem_used += vbytes;
                out.stored = true;
                return out;
            }
        }
        out.stored = self.store_on_disk(key, vbytes, &mut out.dropped);
        out
    }

    fn store_on_disk(
        &mut self,
        key: BlockKey,
        vbytes: u64,
        dropped: &mut Vec<(BlockKey, u64)>,
    ) -> bool {
        if vbytes > self.disk_cap {
            dropped.push((key, vbytes));
            return false;
        }
        while self.disk_used + vbytes > self.disk_cap {
            let Some(victim) = Self::scan_victim(&self.disk) else {
                break;
            };
            let b = self.disk.remove(&victim).unwrap();
            self.disk_used -= b.vbytes;
            dropped.push((victim, b.vbytes));
        }
        if self.disk_used + vbytes > self.disk_cap {
            dropped.push((key, vbytes));
            return false;
        }
        let lu = self.tick();
        self.disk.insert(
            key,
            RefBlock {
                vbytes,
                last_use: lu,
            },
        );
        self.disk_used += vbytes;
        true
    }

    fn touch(&mut self, key: &BlockKey) -> bool {
        let lu = self.tick();
        if let Some(b) = self.mem.get_mut(key) {
            b.last_use = lu;
            return true;
        }
        if let Some(b) = self.disk.get_mut(key) {
            b.last_use = lu;
            return true;
        }
        false
    }

    fn get(&mut self, key: &BlockKey) -> Option<(flint_engine::BlockLocation, u64)> {
        let lu = self.tick();
        if let Some(b) = self.mem.get_mut(key) {
            b.last_use = lu;
            return Some((flint_engine::BlockLocation::Memory, b.vbytes));
        }
        if let Some(b) = self.disk.get_mut(key) {
            b.last_use = lu;
            return Some((flint_engine::BlockLocation::Disk, b.vbytes));
        }
        None
    }

    fn remove(&mut self, key: &BlockKey) -> bool {
        let in_mem = match self.mem.remove(key) {
            Some(b) => {
                self.mem_used -= b.vbytes;
                true
            }
            None => false,
        };
        let on_disk = match self.disk.remove(key) {
            Some(b) => {
                self.disk_used -= b.vbytes;
                true
            }
            None => false,
        };
        in_mem || on_disk
    }

    fn peek(&self, key: &BlockKey) -> Option<(flint_engine::BlockLocation, u64)> {
        if let Some(b) = self.mem.get(key) {
            return Some((flint_engine::BlockLocation::Memory, b.vbytes));
        }
        if let Some(b) = self.disk.get(key) {
            return Some((flint_engine::BlockLocation::Disk, b.vbytes));
        }
        None
    }
}

#[derive(Debug, Clone)]
enum ClusterOp {
    /// `insert_block(worker % n, key, vbytes)`.
    Insert(usize, u32, u64),
    /// An insert bigger than both tiers of every worker: refused, and
    /// any older copy of the key must stay listed.
    Oversized(usize, u32),
    Touch(usize, u32),
    AddWorker(u64, u64),
    /// `remove_by_ext` of worker `% n` (a no-op if it is already dead).
    Remove(usize),
}

fn arb_cluster_ops() -> impl Strategy<Value = Vec<ClusterOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..8, 0u32..KEYS, 1u64..150).prop_map(|(w, k, b)| ClusterOp::Insert(w, k, b)),
            (0usize..8, 0u32..KEYS, 1u64..150).prop_map(|(w, k, b)| ClusterOp::Insert(w, k, b)),
            (0usize..8, 0u32..KEYS, 1u64..150).prop_map(|(w, k, b)| ClusterOp::Insert(w, k, b)),
            (0usize..8, 0u32..KEYS).prop_map(|(w, k)| ClusterOp::Oversized(w, k)),
            (0usize..8, 0u32..KEYS).prop_map(|(w, k)| ClusterOp::Touch(w, k)),
            (20u64..120, 20u64..120).prop_map(|(m, d)| ClusterOp::AddWorker(m, d)),
            (0usize..8).prop_map(ClusterOp::Remove),
        ],
        0..100,
    )
}

/// Size of the key universe: half RDD partitions, half shuffle outputs.
const KEYS: u32 = 12;

fn universe_key(i: u32) -> BlockKey {
    if i.is_multiple_of(2) {
        BlockKey::RddPart {
            rdd: RddId(1),
            part: i / 2,
        }
    } else {
        BlockKey::ShuffleMap {
            shuffle: ShuffleId(0),
            map_part: i / 2,
        }
    }
}

fn tiny(mem: u64, disk: u64) -> WorkerSpec {
    WorkerSpec {
        cores: 1,
        cache_mem_bytes: mem,
        disk_bytes: disk,
    }
}

/// `locate` as it was before the directory: the first alive worker, in
/// id order, whose store holds the key.
fn scan_locate(c: &Cluster, k: &BlockKey) -> Option<(WorkerId, flint_engine::BlockLocation, u64)> {
    c.workers()
        .iter()
        .filter(|w| w.is_alive())
        .find_map(|w| w.blocks().peek(k).map(|(loc, b)| (w.id, loc, b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every membership-changing or LRU-touching operation, the
    /// directory-backed `locate` agrees with a linear scan of alive
    /// workers for every key in the universe.
    #[test]
    fn directory_locate_matches_alive_scan(
        caps in proptest::collection::vec((20u64..120, 20u64..120), 1..6),
        ops in arb_cluster_ops(),
    ) {
        let mut c = Cluster::new();
        let mut ids: Vec<WorkerId> = Vec::new();
        for (m, d) in caps {
            ids.push(c.add_worker(ids.len() as u64 + 1, tiny(m, d), SimTime::ZERO));
        }
        for op in ops {
            match op {
                ClusterOp::Insert(w, k, b) => {
                    let _ = c.insert_block(ids[w % ids.len()], universe_key(k), Arc::new(vec![]), b);
                }
                ClusterOp::Oversized(w, k) => {
                    let out = c.insert_block(ids[w % ids.len()], universe_key(k), Arc::new(vec![]), 1_000);
                    prop_assert!(!out.stored);
                }
                ClusterOp::Touch(w, k) => c.touch(ids[w % ids.len()], &universe_key(k)),
                ClusterOp::AddWorker(m, d) => {
                    ids.push(c.add_worker(ids.len() as u64 + 1, tiny(m, d), SimTime::ZERO));
                }
                ClusterOp::Remove(w) => {
                    let _ = c.remove_by_ext((w % ids.len()) as u64 + 1);
                }
            }
            for k in 0..KEYS {
                let k = universe_key(k);
                prop_assert_eq!(c.locate(&k), scan_locate(&c, &k), "locate({})", k);
            }
        }
    }
}
