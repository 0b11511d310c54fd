//! Scheduling policies: who runs next.
//!
//! A [`Policy`] sees the pending queue (admission order, never empty) and
//! picks one job to dispatch. It is consulted under the scheduler lock, so
//! implementations keep their own state without further synchronization —
//! but they must be deterministic given the same call sequence, because the
//! property suite replays interleavings against a serial oracle.

use std::collections::HashMap;

/// Opaque client identity for fair-share accounting.
pub type ClientId = u32;

/// Job priority classes. Ordering is by urgency (`Low < Normal < High`);
/// backpressure sheds/delays only `Low` (DESIGN.md §5i).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    Low,
    Normal,
    High,
}

/// What a policy gets to see about one pending job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Admission sequence number (monotonic per scheduler); FIFO order.
    pub seq: u64,
    /// Scheduler-assigned job id (monotonic from 1).
    pub job_id: u64,
    /// Submitting client, the fair-share accounting unit.
    pub client: ClientId,
    pub priority: Priority,
    /// Caller-declared relative cost (e.g. aggregator dimension). Only
    /// fair-share interprets it; 1 is a fine default for uniform jobs.
    pub cost: u64,
}

/// Picks the next pending job to dispatch.
pub trait Policy: Send {
    fn name(&self) -> &'static str;

    /// Index into `pending` of the job to dispatch next. `pending` is
    /// non-empty and in admission order (ascending `seq`).
    fn select(&mut self, pending: &[JobMeta]) -> usize;
}

/// First-in, first-out: admission order, no client or priority awareness.
/// The baseline a bursty adversary exploits: a victim's job waits behind
/// the whole burst.
#[derive(Debug, Default)]
pub struct Fifo;

impl Policy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, _pending: &[JobMeta]) -> usize {
        0 // admission order
    }
}

/// Strict priority: highest [`Priority`] first, FIFO within a class. Starves
/// low classes by design — use fair-share when starvation is unacceptable.
#[derive(Debug, Default)]
pub struct StrictPriority;

impl Policy for StrictPriority {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn select(&mut self, pending: &[JobMeta]) -> usize {
        let best = pending.iter().map(|m| m.priority).max().expect("non-empty");
        // First occurrence = lowest seq within the top class (FIFO tiebreak).
        pending.iter().position(|m| m.priority == best).expect("max exists")
    }
}

/// Fair share via deficit round-robin (DRR) over clients.
///
/// Each visit grants a client `quantum` units of deficit; a client's
/// head-of-line job runs when its deficit covers the job's declared `cost`.
/// Clients with nothing pending leave the rotation and forfeit their
/// deficit (no banking while idle) — that is what bounds a well-behaved
/// client's wait to O(one adversary job) instead of O(whole burst).
#[derive(Debug)]
pub struct FairShare {
    quantum: u64,
    deficits: HashMap<ClientId, u64>,
    /// The client id the next rotation starts from (round-robin cursor).
    resume_from: ClientId,
}

impl FairShare {
    /// `quantum` is the per-visit deficit grant, in the same units as
    /// [`JobMeta::cost`]. Sizing it near the typical *small* job cost gives
    /// the classic DRR behavior: small jobs flow every cycle, big jobs wait
    /// for their client's deficit to build up.
    pub fn new(quantum: u64) -> Self {
        Self { quantum: quantum.max(1), deficits: HashMap::new(), resume_from: 0 }
    }
}

impl Policy for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn select(&mut self, pending: &[JobMeta]) -> usize {
        // Head-of-line job per client, clients in ascending id order for a
        // deterministic rotation.
        let mut heads: Vec<(ClientId, usize)> = Vec::new();
        for (i, m) in pending.iter().enumerate() {
            if !heads.iter().any(|(c, _)| *c == m.client) {
                heads.push((m.client, i));
            }
        }
        heads.sort_unstable_by_key(|(c, _)| *c);
        // Idle clients leave the rotation and lose their bank.
        self.deficits.retain(|c, _| heads.iter().any(|(h, _)| h == c));

        let n = heads.len();
        let start = heads.iter().position(|(c, _)| *c >= self.resume_from).unwrap_or(0);
        // Each pass grants every present client one quantum; some client's
        // deficit eventually covers its head job, so this terminates.
        loop {
            for k in 0..n {
                let (client, head) = heads[(start + k) % n];
                let d = self.deficits.entry(client).or_insert(0);
                *d += self.quantum;
                if *d >= pending[head].cost {
                    *d -= pending[head].cost;
                    self.resume_from = client.wrapping_add(1);
                    return head;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u64, client: ClientId, cost: u64) -> JobMeta {
        JobMeta { seq, job_id: seq, client, priority: Priority::Normal, cost }
    }

    #[test]
    fn fifo_takes_admission_order() {
        let mut p = Fifo;
        let pending = [meta(3, 1, 1), meta(4, 0, 1)];
        assert_eq!(p.select(&pending), 0);
    }

    #[test]
    fn strict_priority_prefers_high_then_fifo() {
        let mut p = StrictPriority;
        let mut pending = vec![meta(0, 0, 1), meta(1, 1, 1), meta(2, 1, 1)];
        pending[1].priority = Priority::High;
        pending[2].priority = Priority::High;
        assert_eq!(p.select(&pending), 1, "earliest job of the top class");
        pending[1].priority = Priority::Low;
        pending[0].priority = Priority::Low;
        assert_eq!(p.select(&pending), 2);
    }

    #[test]
    fn fair_share_interleaves_clients() {
        // Client 0 has a burst of cheap jobs, client 1 one cheap job: the
        // single client-1 job must run within the first two selections, not
        // behind the whole burst.
        let mut p = FairShare::new(1);
        let mut pending: Vec<JobMeta> =
            (0..8).map(|s| meta(s, 0, 1)).chain([meta(8, 1, 1)]).collect();
        let mut served_client1_at = None;
        for round in 0..3 {
            let idx = p.select(&pending);
            if pending[idx].client == 1 {
                served_client1_at = Some(round);
                break;
            }
            pending.remove(idx);
        }
        assert!(
            matches!(served_client1_at, Some(r) if r <= 1),
            "client 1 served within two rounds: {served_client1_at:?}"
        );
    }

    #[test]
    fn fair_share_makes_expensive_jobs_wait_for_deficit() {
        // Client 0's head job costs 8 quanta; client 1's cost 1. Client 1
        // gets ~8 serves while client 0's deficit accumulates, then client
        // 0 runs — bounded sharing, not starvation.
        let mut p = FairShare::new(1);
        let mut pending: Vec<JobMeta> =
            [meta(0, 0, 8)].into_iter().chain((1..12).map(|s| meta(s, 1, 1))).collect();
        let mut order = Vec::new();
        for _ in 0..9 {
            let idx = p.select(&pending);
            order.push(pending[idx].client);
            pending.remove(idx);
        }
        assert!(order.contains(&0), "expensive client eventually served: {order:?}");
        assert!(
            order.iter().filter(|c| **c == 1).count() >= 6,
            "cheap client flows while the deficit builds: {order:?}"
        );
    }

    #[test]
    fn fair_share_is_deterministic() {
        let run = || {
            let mut p = FairShare::new(2);
            let mut pending: Vec<JobMeta> = (0..10).map(|s| meta(s, (s % 3) as u32, 1 + s % 4)).collect();
            let mut order = Vec::new();
            while !pending.is_empty() {
                let idx = p.select(&pending);
                order.push(pending[idx].seq);
                pending.remove(idx);
            }
            order
        };
        assert_eq!(run(), run());
    }
}
