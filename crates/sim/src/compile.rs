//! The compiled flat-state simulation engine.
//!
//! [`NetworkSim::run`](crate::NetworkSim::run) lowers the routing table and
//! VC allocation into dense arrays once per `(topology, table, vcs)` and
//! then drives a sequential hot loop built around three levers:
//!
//! * **Batched injection sampling** — traffic comes from the per-source
//!   arrival schedule ([`InjectionSchedule`]): Bernoulli geometric
//!   inter-arrival gaps are skip-sampled once per *arrival*
//!   instead of one coin per source per cycle, so an idle cycle draws
//!   zero RNG.  Because the injection stream (like trace replay) is then
//!   a pure function of `(seed, load)` — independent of which cycles the
//!   engine visits — a commit-free cycle can jump straight to the next
//!   ready/free/due threshold even inside the measurement window, which
//!   is where sub-saturation sweep points spend most of their cycles.
//! * **One head packet per source** — a source holds only its oldest
//!   packet that has not left (`SourceHead`); its backlog is the unread
//!   rest of its arrival stream.  When the head leaves at cycle `c`, the
//!   source draws its next arrival: one due by `c` becomes the new head,
//!   created at its due cycle, and otherwise the source goes back on the
//!   injection calendar.  Only headless sources are on the calendar, so
//!   an idle jump lands on arrivals that make a head.  Arrivals are
//!   counted by due cycle when drawn, and the arrivals still unread when
//!   the loop ends are drawn and counted then.  Each source's stream,
//!   Bernoulli or trace replay, is drawn from the one schedule in the
//!   reference loop's order.
//! * **One slab per output link** — every packet waiting in a router's
//!   input buffers is one entry (`Cand`) in the slab of the link it
//!   takes next, holding all that arbitration and commit read: a packed
//!   `(created << 20) | slot` tie-break key, the ready cycle, size, VC,
//!   in-link, its position in the hop table and the hops left.  A scan
//!   is one min-reduction over the slab (eligible → min key, in-flight →
//!   min ready), and the commit reads the winner from the entry the scan
//!   just touched, with no router-side or path-table load.  The packed
//!   key makes "oldest, lowest slot" a single integer `min`, reproducing
//!   the reference scan's first-strictly-older tie-break exactly.  Each
//!   router keeps only a slot map from the reference loop's resident
//!   slots to `(link, slab position)`, renumbered by the same
//!   `swap_remove`s, so slot numbers — and with them every tie-break —
//!   are the reference loop's.
//! * **Visits only to links that can move** — a visit that finds nothing
//!   to do takes the link out of the active set, and the link comes back
//!   through the wake ring at its next arrival or at `free_at`, or through
//!   a busy-aware wake when a candidate or source head joins it.  Three
//!   rules keep every other wake out, and each is exact:
//!   - *Credit wake.*  A link whose oldest ready packet lacks room in its
//!     VC's downstream buffer parks for credit and records that VC and
//!     the packet's size.  A credit release wakes it only when it is
//!     parked on that same VC and the packet now fits.  A release cannot
//!     change which packet is oldest and ready (arrivals, source heads and
//!     renumberings wake the link themselves), so any other release
//!     leaves the decision a park.
//!   - *Commit re-arm.*  After a commit the link re-arms at `free_at` if a
//!     source head waits on it, else at the later of `free_at` and the
//!     earliest ready candidate left, and goes dark with neither: it
//!     cannot commit while it serializes or while every candidate is
//!     still in flight.
//!   - *Renumber wake.*  A slot-map `swap_remove` lowers the moved
//!     resident's `(created, slot)` key, which can change a decision only
//!     where the oldest ready packet stays put: on a link parked for
//!     credit.  A link that is busy, re-armed after a commit or parked
//!     with nothing ready decides afresh at its next visit, so only
//!     credit-parked links are woken.
//!
//!   With a wake ring that covers the longest packet no wake fires early,
//!   so every visit commits, finds its link busy or parks for credit.
//!
//! The engine replays the exact event sequence of the scan-based loop
//! ([`NetworkSim::run_reference`](crate::NetworkSim::run_reference)): the
//! same injection stream, the same winner for every output link, the same
//! mid-cycle visibility of earlier links' commits.  Reports are
//! bit-identical; the `compiled_equivalence` proptests assert that across
//! random topologies, patterns, loads, failure masks and traces.
//!
//! [`InjectionSchedule`]: crate::inject::InjectionSchedule

use crate::activity::{ActivityProfile, LinkActivity};
use crate::config::{PacketClass, SimConfig};
use crate::inject::InjectionSchedule;
use crate::network::{EpochSample, EpochSeries, NetworkSim, SimReport};
use crate::stats::LatencyStats;
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_topo::{Layout, RouterId, Topology};

/// Sentinel for "no link": an unrouted flow, a source with no head, a
/// resident with no physical output (packets on such flows block forever,
/// exactly as under the reference scan).
const NONE: u32 = u32::MAX;

/// Upper bound on the wake ring's bucket count.  Wakes further out than
/// the ring clamp to its far edge and re-park on each early visit, so the
/// cap is exact; it keeps a huge trace message from sizing the ring.
const RING_MAX_BUCKETS: usize = 1024;

/// The wake ring's bucket count: a power of two covering the longest
/// wake-up a run schedules (the largest packet's serialization plus the
/// link and router latencies), at least 16 and at most
/// [`RING_MAX_BUCKETS`].
fn ring_len(max_flits: u64, link_latency: u64, router_latency: u64) -> usize {
    let horizon = max_flits
        .saturating_add(link_latency)
        .saturating_add(router_latency)
        .saturating_add(2);
    let buckets = horizon.saturating_add(1).min(RING_MAX_BUCKETS as u64) as usize;
    buckets.next_power_of_two().max(16)
}

/// Low bits of a packed candidate key holding the slab slot; the high
/// bits hold the creation cycle, so an integer `min` over keys is the
/// lexicographic `(created, slot)` minimum the arbitration needs.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The routing table, VC allocation and link structure of one network,
/// lowered to dense index arrays.  Owned (no borrows), built once per
/// `(topology, table, vcs)` and reused across every load point of a sweep.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    n: usize,
    /// Directed links in `Topology::links` iteration order; positions are
    /// the link ids every other array is keyed by.
    links: Vec<(RouterId, RouterId)>,
    /// CSR offsets into `hops`, one slot per flow (`src * n + dst`), plus a
    /// final end sentinel.  An empty range means the flow is unrouted.
    path_offsets: Vec<u32>,
    /// Concatenated per-flow paths as link ids.  A `NONE` entry marks a
    /// table hop with no physical link (an invalid table): packets reaching
    /// it stall forever, matching the reference scan.
    hops: Vec<u32>,
    /// Per-flow virtual channel, already clamped to `num_vcs - 1`.
    vc_of_flow: Vec<u32>,
    num_vcs: usize,
}

impl CompiledNetwork {
    /// Lower `(topology, table, vcs)` into the flat representation.
    pub(crate) fn compile(
        topo: &Topology,
        table: &RoutingTable,
        vcs: Option<&VcAllocation>,
        config: &SimConfig,
    ) -> Self {
        let n = topo.num_routers();
        let links: Vec<(RouterId, RouterId)> = topo.links().collect();
        let mut link_id = vec![NONE; n * n];
        for (idx, &(from, to)) in links.iter().enumerate() {
            link_id[from * n + to] = idx as u32;
        }
        let mut path_offsets = Vec::with_capacity(n * n + 1);
        let mut hops = Vec::new();
        let mut vc_of_flow = vec![0u32; n * n];
        path_offsets.push(0u32);
        for src in 0..n {
            for dst in 0..n {
                if let Some(path) = table.path(src, dst) {
                    for pair in path.windows(2) {
                        hops.push(link_id[pair[0] * n + pair[1]]);
                    }
                }
                path_offsets.push(hops.len() as u32);
                vc_of_flow[src * n + dst] = vcs
                    .and_then(|a| a.assignment.get(src * n + dst).copied().flatten())
                    .unwrap_or(0)
                    .min(config.num_vcs - 1) as u32;
            }
        }
        CompiledNetwork {
            n,
            links,
            path_offsets,
            hops,
            vc_of_flow,
            num_vcs: config.num_vcs,
        }
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of routed flows.
    pub fn num_routed_flows(&self) -> usize {
        self.path_offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// A flow's first hop: its link (`NONE` when the flow is unrouted),
    /// that link's position in `hops`, and the hops left after it.
    #[inline]
    fn first_hop(&self, flow: u32) -> (u32, u32, u32) {
        let off = self.path_offsets[flow as usize];
        let end = self.path_offsets[flow as usize + 1];
        if off == end {
            (NONE, 0, 0)
        } else {
            (self.hops[off as usize], off, end - off - 1)
        }
    }
}

/// A packet waiting in a router's input buffers, as its output link's
/// arbitration and commit read it: one entry of that link's slab.
#[derive(Debug, Clone, Copy, Default)]
struct Cand {
    /// `(created << SLOT_BITS) | slot`, `slot` being the packet's slot in
    /// its router's slot map.
    key: u64,
    /// Cycle the packet has fully arrived and may leave.
    ready_at: u64,
    flits: u32,
    vc: u32,
    /// Link whose downstream VC buffer the packet occupies.
    in_link: u32,
    /// Position in `hops` of the link the packet takes next: the link
    /// whose slab holds this entry.
    hop: u32,
    /// Hops left after that link; 0 means the packet ejects there.
    left: u32,
}

/// The packet at the head of a source: its oldest arrival that has not
/// left yet.  The arrivals behind it are the unread rest of the source's
/// arrival stream, drawn one at a time as heads leave.
#[derive(Debug, Clone, Copy)]
struct SourceHead {
    created: u64,
    flits: u32,
    vc: u32,
    /// The head's first-hop link, or `NONE` when the source has no head
    /// or the head's flow is unrouted (it then blocks forever).
    out: u32,
    /// The first hop's position in `hops` and the hops left after it, as
    /// in [`Cand`].
    hop: u32,
    left: u32,
}

impl SourceHead {
    const EMPTY: SourceHead = SourceHead {
        created: 0,
        flits: 0,
        vc: 0,
        out: NONE,
        hop: 0,
        left: 0,
    };
}

/// Winner read-out captured by [`St::arbitrate_pre`]: the winning packet
/// as a slab entry, read while the scan has it hot (a source head's entry
/// has no key), its creation cycle, and `rest_ready`, the earliest cycle
/// a candidate the commit leaves behind is ready (`u64::MAX` when none is
/// left).  Default-initialized (and meaningless) for non-commit decisions.
#[derive(Debug, Clone, Copy, Default)]
struct Pre {
    winner: Cand,
    created: u64,
    rest_ready: u64,
}

/// Hot per-link state: the cycle the link is serializing until, the
/// credit park its last visit ended in, and the measurement-window
/// activity counters, packed so a commit touches one location per link.
/// `free_at` is monotone — a link only ever gets busier — which is what
/// makes busy-aware wake-ups (see [`St::wake`]) exact.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    free_at: u64,
    flits: u64,
    busy_cycles: u64,
    /// VC whose downstream buffer lacked room for the oldest ready packet
    /// at the link's last visit, `NONE` when that visit did not end in a
    /// credit park; `wait_flits` is that packet's size.
    wait_vc: u32,
    wait_flits: u32,
}

impl LinkState {
    const IDLE: LinkState = LinkState {
        free_at: 0,
        flits: 0,
        busy_cycles: 0,
        wait_vc: NONE,
        wait_flits: 0,
    };
}

#[inline]
fn set_bit(active: &mut [u64], link: u32) {
    active[(link / 64) as usize] |= 1u64 << (link % 64);
}

#[inline]
fn clear_bit(active: &mut [u64], link: u32) {
    active[(link / 64) as usize] &= !(1u64 << (link % 64));
}

/// What one output link does this cycle, as computed by
/// [`St::arbitrate_pre`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Still serializing: park until `free_at`.
    Busy,
    /// No ready packet; park until the carried cycle (`u64::MAX` = go
    /// dark until an add or source-head wake re-arms the link).
    Park(u64),
    /// The oldest ready packet, of `flits` flits on `vc`, lacks downstream
    /// credit; park like [`Decision::Park`] and remember the VC.
    Blocked { until: u64, vc: u32, flits: u32 },
    /// The source's head packet wins.
    CommitSource,
    /// The resident at the carried position of the link's slab wins.
    CommitSlot(u32),
}

/// Knobs: the per-run read-only parameters threaded through the loop.
struct Knobs<'s, 'a> {
    sim: &'s NetworkSim<'a>,
    layout: Layout,
    measure_start: u64,
    measure_end: u64,
    total_cycles: u64,
    link_latency: u64,
    router_latency: u64,
    num_links: usize,
}

/// Link visits of one run, by outcome: the engine's deterministic work
/// count.  Each visit is one [`St::arbitrate_pre`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Visits {
    /// Visits that committed a packet.
    commits: u64,
    /// Visits to a link still serializing.
    busy: u64,
    /// Visits whose oldest ready packet lacked downstream credit.
    credit_parks: u64,
    /// Visits that found no ready packet at all.
    idle_parks: u64,
}

/// Window counters folded into the final [`SimReport`].
struct Counters {
    stats: LatencyStats,
    packets: u64,
    window_flits: u64,
    outstanding: u64,
    packets_ejected: u64,
    flits_ejected: u64,
}

impl Counters {
    /// Count an arrival of `flits` flits by its due cycle, whenever it is
    /// drawn: the totals are sums, so the order arrivals are drawn in
    /// does not matter.
    #[inline]
    fn count_injected(&mut self, due: u64, flits: u32, k: &Knobs<'_, '_>, probe: &mut EpochProbe) {
        if due >= k.measure_start && due < k.measure_end {
            self.packets += 1;
            self.window_flits += flits as u64;
            self.outstanding += 1;
            probe.note_injected(due, flits as u64);
        }
    }
}

/// The optional per-epoch time-series accumulator (`len == 0` disables
/// it).  Attribution mirrors the window counters — injections by
/// injection cycle, accepted flits by arrival cycle, latency samples by
/// creation cycle — so every epoch column sums (or averages) back to the
/// corresponding report field.  Boundaries are closed lazily at the loop
/// head; a jump over a boundary is exact because nothing changes during a
/// jumped stretch, so the occupancy snapshot is the boundary's.
struct EpochProbe {
    len: u64,
    measure_start: u64,
    measure_end: u64,
    injected: Vec<u64>,
    accepted: Vec<u64>,
    ejected: Vec<u64>,
    stats: Vec<LatencyStats>,
    buffered: Vec<u64>,
    idx: usize,
    next_end: u64,
}

impl EpochProbe {
    fn new(cfg: &SimConfig, measure_start: u64, measure_end: u64) -> Self {
        let len = cfg.epoch_cycles;
        let num = if len > 0 {
            cfg.measure_cycles.div_ceil(len) as usize
        } else {
            0
        };
        EpochProbe {
            len,
            measure_start,
            measure_end,
            injected: vec![0; num],
            accepted: vec![0; num],
            ejected: vec![0; num],
            stats: vec![LatencyStats::new(); num],
            buffered: vec![0; num],
            idx: 0,
            next_end: if num > 0 {
                (measure_start + len).min(measure_end)
            } else {
                u64::MAX
            },
        }
    }

    /// Close every epoch that ends at or before `cycle`, snapshotting the
    /// instantaneous buffered-flit occupancy as of the boundary (all
    /// commits of the epoch's last visited cycle have happened; nothing of
    /// the current cycle has, and jumped cycles change nothing).
    #[inline]
    fn close_finished(&mut self, cycle: u64, buffered: u64) {
        while cycle >= self.next_end && self.idx < self.injected.len() {
            self.buffered[self.idx] = buffered;
            self.idx += 1;
            self.next_end = if self.idx < self.injected.len() {
                (self.measure_start + (self.idx as u64 + 1) * self.len).min(self.measure_end)
            } else {
                u64::MAX
            };
        }
    }

    // `len > 0` below means "probe enabled", not a division guard:
    // `checked_div` would hoist the cycle-offset subtraction ahead of it,
    // which may underflow while the probe is disabled.
    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_injected(&mut self, cycle: u64, flits: u64) {
        if self.len > 0 {
            self.injected[((cycle - self.measure_start) / self.len) as usize] += flits;
        }
    }

    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_accepted(&mut self, arrival: u64, flits: u64) {
        if self.len > 0 {
            self.accepted[((arrival - self.measure_start) / self.len) as usize] += flits;
        }
    }

    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_ejected(&mut self, created: u64, latency: f64) {
        if self.len > 0 {
            let e = ((created - self.measure_start) / self.len) as usize;
            self.stats[e].record(latency);
            self.ejected[e] += 1;
        }
    }

    /// Close any epochs still open and assemble the series.
    fn finish(mut self, buffered: u64) -> Option<EpochSeries> {
        let num = self.injected.len();
        while self.idx < num {
            self.buffered[self.idx] = buffered;
            self.idx += 1;
        }
        (self.len > 0).then(|| EpochSeries {
            epoch_cycles: self.len,
            samples: (0..num)
                .map(|e| {
                    let start_cycle = self.measure_start + e as u64 * self.len;
                    EpochSample {
                        start_cycle,
                        end_cycle: (start_cycle + self.len).min(self.measure_end),
                        injected_flits: self.injected[e],
                        accepted_flits: self.accepted[e],
                        packets_ejected: self.ejected[e],
                        mean_latency_cycles: self.stats[e].mean(),
                        p95_latency_cycles: self.stats[e].percentile(0.95),
                        buffered_flits: self.buffered[e],
                    }
                })
                .collect(),
        })
    }
}

/// The mutable simulation state.
struct St<'n> {
    net: &'n CompiledNetwork,
    num_vcs: usize,
    vc_buffer_flits: u64,
    lstate: Vec<LinkState>,
    /// Flits resident in router input buffers network-wide: what the
    /// epoch probe samples at each boundary.
    buffered: u64,
    /// Flat per-(link, VC) buffer occupancy in flits.
    vc_occ: Vec<u32>,
    /// Per-router slot maps: slot `s` of router `r` is the packet the
    /// reference loop keeps at `residents[r][s]`, mapped to the link it
    /// takes next and its position in that link's slab, or to
    /// `(NONE, NONE)` when the table has no physical link there (the
    /// packet stalls forever).  Slot order matches the reference loop's
    /// `swap_remove` order exactly (tie-breaking depends on it).
    slots: Vec<Vec<(u32, u32)>>,
    /// Per-output-link slabs of the packets waiting to take that link,
    /// each entry all that arbitration scans and a commit reads.  Every
    /// entry of link `o`'s slab sits in a slot of `links[o].0`, and its
    /// key carries that slot.
    slabs: Vec<Vec<Cand>>,
    /// One-bit-per-link active set over the slabs.
    active: Vec<u64>,
    /// Parking calendar: a link with provably nothing to do until a known
    /// cycle leaves the active set and re-arms through this ring.  Each
    /// bucket is a bitmap with the same word layout as `active`, so a
    /// park is one `OR`, duplicates coalesce for free, and draining a
    /// bucket is a word-wise `OR` into the active set.
    ring: Vec<u64>,
    ring_mask: u64,
    /// One head packet per source.
    heads: Vec<SourceHead>,
}

impl St<'_> {
    /// Park `link` in the calendar bucket for cycle `t` (one bit-OR).
    #[inline]
    fn ring_push(&mut self, t: u64, link: u32) {
        let words = self.active.len();
        let idx = (t & self.ring_mask) as usize;
        self.ring[idx * words + (link / 64) as usize] |= 1u64 << (link % 64);
    }

    /// Make `link` get examined again as soon as examining it could
    /// matter: immediately when the link is idle, otherwise at `free_at`
    /// through the ring — a busy link cannot commit before it frees, and
    /// `free_at` only grows through the link's own commits (which re-arm
    /// it themselves), so deferring the visit is exact and skips every
    /// pointless busy-check in between.  Duplicate wake-ups are harmless:
    /// a visit that finds nothing to do parks the link again.
    #[inline]
    fn wake(&mut self, cycle: u64, link: u32) {
        let free_at = self.lstate[link as usize].free_at;
        if free_at > cycle {
            self.ring_push(free_at.min(cycle + self.ring_mask), link);
        } else {
            set_bit(&mut self.active, link);
        }
    }

    /// Wake parked links whose scheduled cycle has arrived.
    #[inline]
    fn drain_ring(&mut self, cycle: u64) {
        let words = self.active.len();
        let idx = (cycle & self.ring_mask) as usize * words;
        for w in 0..words {
            self.active[w] |= self.ring[idx + w];
            self.ring[idx + w] = 0;
        }
    }

    /// Give router `to` a resident created at `created` that takes link
    /// `out` next: the next slot of `to`'s slot map, and `c`, keyed with
    /// that slot, at the end of `out`'s slab (`out == NONE` keeps a
    /// `(NONE, NONE)` slot and no entry).  The output link is woken through
    /// the ring at `max(ready_at, free_at)` rather than immediately: the
    /// new candidate cannot move before it arrives, the link cannot
    /// commit before it frees, and every earlier visit would find
    /// nothing — waking at the later of the two is exact.
    #[inline]
    fn add_resident(&mut self, cycle: u64, to: usize, out: u32, created: u64, mut c: Cand) {
        let slot = self.slots[to].len() as u32;
        debug_assert!(
            (slot as u64) < SLOT_MASK,
            "slab slot overflows the packed key"
        );
        debug_assert!(
            created < (u64::MAX >> SLOT_BITS),
            "cycle overflows the packed key"
        );
        if out == NONE {
            self.slots[to].push((NONE, NONE));
            return;
        }
        let o = out as usize;
        c.key = (created << SLOT_BITS) | slot as u64;
        self.slots[to].push((out, self.slabs[o].len() as u32));
        self.slabs[o].push(c);
        let t = c
            .ready_at
            .max(self.lstate[o].free_at)
            .min(cycle + self.ring_mask);
        self.ring_push(t, out);
    }

    /// Remove router `from`'s slot `slot`, whose entry sits at `pos` of
    /// link `o`'s slab, renumbering as the reference loop's
    /// `swap_remove` does: the slab's last entry moves into `pos` and its
    /// slot is repointed there, and the router's last slot moves into
    /// `slot` and its entry's key is rewritten.  The caller parks the
    /// committed link; a credit-parked link whose entry got renumbered is
    /// woken here.
    #[inline]
    fn remove_resident(&mut self, cycle: u64, from: usize, slot: u32, o: usize, pos: usize) {
        let slab = &mut self.slabs[o];
        slab.swap_remove(pos);
        if let Some(moved) = slab.get(pos) {
            // The entry moved into `pos` belongs to another slot of the
            // same router: repoint that slot.
            self.slots[from][(moved.key & SLOT_MASK) as usize].1 = pos as u32;
        }
        let slots = &mut self.slots[from];
        slots.swap_remove(slot as usize);
        if let Some(&(mout, mpos)) = slots.get(slot as usize) {
            // The router's last slot moved into `slot`: rewrite the slot
            // bits of its packed key.  The lower key can make it the
            // oldest ready candidate, which matters only where the old one
            // is blocked: wake the link if it is parked for credit.
            if mpos != NONE {
                let key = &mut self.slabs[mout as usize][mpos as usize].key;
                *key = (*key & !SLOT_MASK) | slot as u64;
                if self.lstate[mout as usize].wait_vc != NONE {
                    self.wake(cycle, mout);
                }
            }
        }
    }

    /// Give source `src` — whose head just left, or which has none — its
    /// next arrival due by `cycle` as the new head, waking the head's
    /// first-hop link.  Every arrival drawn on the way is counted by its
    /// due cycle; masked ones are consumed uncounted.  With nothing due by
    /// `cycle`, the source goes back on the calendar.  Arrivals due by
    /// `cycle` are exactly the ones the reference loop has queued by this
    /// point of the cycle: its traffic generation runs before the link
    /// scan.
    fn next_head(
        &mut self,
        inj: &mut InjectionSchedule<'_>,
        src: usize,
        cycle: u64,
        k: &Knobs<'_, '_>,
        counters: &mut Counters,
        probe: &mut EpochProbe,
    ) {
        loop {
            let due = inj.due(src);
            if due > cycle {
                inj.rearm(src);
                return;
            }
            let Some(ev) = inj.draw(src, &k.sim.pattern, &k.layout, &k.sim.alive) else {
                continue;
            };
            counters.count_injected(due, ev.flits, k, probe);
            let flow = (src * self.net.n + ev.dst as usize) as u32;
            let (out, hop, left) = self.net.first_hop(flow);
            self.heads[src] = SourceHead {
                created: due,
                flits: ev.flits,
                vc: self.net.vc_of_flow[flow as usize],
                out,
                hop,
                left,
            };
            if out != NONE {
                self.wake(cycle, out);
            }
            return;
        }
    }

    /// Decide what output link `o` does this cycle, with exactly the
    /// reference loop's semantics: oldest eligible candidate wins, ties to
    /// the lowest slot, the source head loses ties, and a forward needs
    /// downstream credit for the whole packet.
    ///
    /// Returns the decision plus the winner read-out: the winning packet
    /// as the scan found it, so [`St::commit_pre`] never re-reads the
    /// source head or the slab.  The read-out is meaningful only for
    /// commit decisions.
    #[inline]
    fn arbitrate_pre(&self, o: usize, cycle: u64) -> (Decision, Pre) {
        if self.lstate[o].free_at > cycle {
            return (Decision::Busy, Pre::default());
        }
        // One min-reduction over the slab: eligible entries feed the
        // winner key and position, in-flight entries the next-arrival
        // park target.  Keys are distinct, so the first minimum is the
        // only one.
        let slab = &self.slabs[o];
        let mut best_key = u64::MAX;
        let mut best = 0;
        let mut next_ready = u64::MAX;
        let mut eligible = 0u32;
        for (i, c) in slab.iter().enumerate() {
            let elig = c.ready_at <= cycle;
            let key = if elig { c.key } else { u64::MAX };
            if key < best_key {
                (best_key, best) = (key, i);
            }
            next_ready = next_ready.min(if elig { u64::MAX } else { c.ready_at });
            eligible += u32::from(elig);
        }
        let (from, _) = self.net.links[o];
        // The source head loses ties to residents, as in the reference
        // loop.  With no eligible resident `best_key >> SLOT_BITS` is an
        // unreachable creation cycle, so any head wins.
        let head = &self.heads[from];
        let from_source = head.out == o as u32 && head.created < (best_key >> SLOT_BITS);
        if !from_source && best_key == u64::MAX {
            return (Decision::Park(next_ready), Pre::default());
        }
        let (winner, created) = if from_source {
            let entry = Cand {
                key: 0,
                ready_at: head.created,
                flits: head.flits,
                vc: head.vc,
                in_link: NONE,
                hop: head.hop,
                left: head.left,
            };
            (entry, head.created)
        } else {
            (slab[best], best_key >> SLOT_BITS)
        };
        let (vc, flits) = (winner.vc, winner.flits);
        if winner.left != 0 {
            // The packet will occupy the VC buffer at the downstream end
            // of *this* link; without credit for all of it, nothing moves.
            let occ = self.vc_occ[o * self.num_vcs + vc as usize];
            if occ as u64 + flits as u64 > self.vc_buffer_flits {
                let until = next_ready;
                return (Decision::Blocked { until, vc, flits }, Pre::default());
            }
        }
        // A commit leaves every other candidate behind: one is ready now
        // if any besides the winner is, else the next arrival.
        let rest_ready = if eligible > u32::from(!from_source) {
            cycle
        } else {
            next_ready
        };
        let pre = Pre {
            winner,
            created,
            rest_ready,
        };
        if from_source {
            (Decision::CommitSource, pre)
        } else {
            (Decision::CommitSlot(best as u32), pre)
        }
    }

    /// Commit a winning decision on link `o` with the winner read-out of
    /// [`St::arbitrate_pre`] in hand: dequeue the winner, account the
    /// serialization, and either eject or forward.  A departing source
    /// head leaves its source headless; the caller draws the next one
    /// ([`St::next_head`]).  Inlined into the scan loop: with the winner
    /// handed over as one slab entry, `perf`'s `sim/run_48r_midload` read
    /// 8.6 ms median against 10.0 ms with `#[inline(never)]` (2 vCPUs).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn commit_pre(
        &mut self,
        o: usize,
        cycle: u64,
        dec: Decision,
        pre: Pre,
        k: &Knobs<'_, '_>,
        counters: &mut Counters,
        probe: &mut EpochProbe,
        in_window: bool,
    ) {
        let (from, to) = self.net.links[o];
        let Pre {
            winner: w,
            created,
            rest_ready,
        } = pre;
        let (flits, vc, in_link) = (w.flits, w.vc, w.in_link);
        self.lstate[o].wait_vc = NONE;
        if dec == Decision::CommitSource {
            self.heads[from].out = NONE;
        } else {
            let Decision::CommitSlot(pos) = dec else {
                unreachable!();
            };
            let slot = (w.key & SLOT_MASK) as u32;
            self.remove_resident(cycle, from, slot, o, pos as usize);
            let occ = &mut self.vc_occ[in_link as usize * self.num_vcs + vc as usize];
            *occ = occ.saturating_sub(flits);
            // Credit release: wake the upstream link only if it is parked
            // for credit on this VC and the packet it parked on now fits.
            let occ = *occ as u64;
            let up = &self.lstate[in_link as usize];
            if up.wait_vc == vc && occ + up.wait_flits as u64 <= self.vc_buffer_flits {
                self.wake(cycle, in_link);
            }
            self.buffered -= flits as u64;
        }
        // The link now serializes this packet: park it, re-arming when
        // it next has a ready packet — at `free_at` if a source head waits
        // on it, else at the later of `free_at` and the earliest ready
        // candidate left behind.  With neither it goes dark: every later
        // add/head wake is busy-aware and re-arms it itself.
        let serialization = flits as u64;
        let free_at = cycle + serialization;
        clear_bit(&mut self.active, o as u32);
        let rearm = if self.heads[from].out == o as u32 {
            free_at
        } else {
            rest_ready.max(free_at)
        };
        if rearm != u64::MAX {
            self.ring_push(rearm.min(cycle + self.ring_mask), o as u32);
        }
        let s = &mut self.lstate[o];
        s.free_at = free_at;
        if in_window {
            s.flits += serialization;
            s.busy_cycles += serialization.min(k.measure_end - cycle);
        }
        let arrival = cycle + k.link_latency + serialization + k.router_latency;
        if w.left == 0 {
            // Ejected at the destination.
            let latency = (arrival - created) as f64;
            if created >= k.measure_start && created < k.measure_end {
                counters.stats.record(latency);
                counters.packets_ejected += 1;
                counters.outstanding = counters.outstanding.saturating_sub(1);
                probe.note_ejected(created, latency);
            }
            if arrival >= k.measure_start && arrival < k.measure_end {
                counters.flits_ejected += flits as u64;
                probe.note_accepted(arrival, flits as u64);
            }
        } else {
            self.vc_occ[o * self.num_vcs + vc as usize] += flits;
            self.buffered += flits as u64;
            let hop = w.hop + 1;
            let c = Cand {
                key: 0,
                ready_at: arrival,
                flits,
                vc,
                in_link: o as u32,
                hop,
                left: w.left - 1,
            };
            self.add_resident(cycle, to, self.net.hops[hop as usize], created, c);
        }
    }
}

/// The cycle loop.
fn run_cycles(
    st: &mut St<'_>,
    k: &Knobs<'_, '_>,
    mut inj: InjectionSchedule<'_>,
    counters: &mut Counters,
    probe: &mut EpochProbe,
    visits: &mut Visits,
) {
    let l = k.num_links;
    let mut cycle: u64 = 0;
    while cycle < k.total_cycles {
        let in_window = cycle >= k.measure_start && cycle < k.measure_end;
        probe.close_finished(cycle, st.buffered);
        st.drain_ring(cycle);
        // Traffic generation: a headless source whose next arrival is due
        // takes it as its head.  Backlogged sources are off the calendar;
        // they draw when their head leaves.
        if cycle < k.measure_end {
            while let Some(src) = inj.pop_due_source(cycle) {
                st.next_head(&mut inj, src, cycle, k, counters, probe);
            }
        }
        // Visit active links in ascending id order (the reference loop's
        // iteration order), reading the active set live so commits at
        // earlier links are visible to later ones within the same cycle.
        let mut committed = false;
        let mut scan = 0usize;
        while scan < l {
            let word = st.active[scan / 64] & (!0u64 << (scan % 64));
            if word == 0 {
                scan = (scan / 64 + 1) * 64;
                continue;
            }
            let o = (scan / 64) * 64 + word.trailing_zeros() as usize;
            scan = o + 1;
            let (d, pre) = st.arbitrate_pre(o, cycle);
            match d {
                Decision::Busy => {
                    // Still serializing: park until the link frees.
                    visits.busy += 1;
                    clear_bit(&mut st.active, o as u32);
                    st.ring_push(st.lstate[o].free_at.min(cycle + st.ring_mask), o as u32);
                }
                Decision::Park(next_ready)
                | Decision::Blocked {
                    until: next_ready, ..
                } => {
                    // Nothing can move.  Re-arm at the earliest arrival
                    // still in flight, or go dark without one until an
                    // add, a new source head, or (when parked for credit)
                    // a credit release or renumbering wakes the link.
                    let s = &mut st.lstate[o];
                    if let Decision::Blocked { vc, flits, .. } = d {
                        visits.credit_parks += 1;
                        (s.wait_vc, s.wait_flits) = (vc, flits);
                    } else {
                        visits.idle_parks += 1;
                        s.wait_vc = NONE;
                    }
                    clear_bit(&mut st.active, o as u32);
                    if next_ready != u64::MAX {
                        st.ring_push(next_ready.min(cycle + st.ring_mask), o as u32);
                    }
                }
                Decision::CommitSource | Decision::CommitSlot(_) => {
                    visits.commits += 1;
                    committed = true;
                    st.commit_pre(o, cycle, d, pre, k, counters, probe, in_window);
                    if d == Decision::CommitSource {
                        let src = st.net.links[o].0;
                        st.next_head(&mut inj, src, cycle, k, counters, probe);
                    }
                }
            }
        }
        // Quiescence / idle-stretch skip.  A cycle with zero commits
        // leaves the active set empty (every visited link parked; wakes
        // only happen on commits), so the state can next change at the
        // earliest ready/free/wake threshold or the next due injection.
        // Jump there, or stop when there is none: only permanently
        // stalled packets remain and the report no longer changes.
        if committed {
            cycle += 1;
            continue;
        }
        // A commit-free scan parks every woken link, so the active set is
        // empty and every pending state change is chained through the
        // calendar: an arrival or busy link re-arms its link at (at most)
        // its threshold cycle, and a clamped entry re-parks itself forward
        // on each early visit.  The earliest non-empty bucket is therefore
        // the exact next event — no resident or link scan needed.  What
        // has no calendar chain is permanently stalled and never changes
        // the report again: a packet whose next hop has no link, or a
        // link parked for credit whose release needs a commit that no
        // link can make (oldest-first arbitration lets one VC wait on
        // another through a shared link, so such waits can close a
        // cycle).
        debug_assert!(st.active.iter().all(|&w| w == 0));
        let words = st.active.len();
        let mut next_event = u64::MAX;
        for b in 0..=st.ring_mask {
            if st.ring[b as usize * words..][..words]
                .iter()
                .any(|&w| w != 0)
            {
                let delta = b.wrapping_sub(cycle + 1) & st.ring_mask;
                next_event = next_event.min(cycle + 1 + delta);
            }
        }
        // Only headless sources are on the injection calendar, so its next
        // due cycle is an arrival that makes a head (or a masked one, or
        // a calendar park: an early visit that changes nothing).
        if cycle < k.measure_end {
            if let Some(due) = inj.next_due() {
                if due < k.measure_end {
                    next_event = next_event.min(due);
                }
            }
        }
        if next_event == u64::MAX {
            break;
        }
        cycle = next_event;
    }
    // The arrivals still unread — backlogs behind heads that never left,
    // and everything due after a quiescence stop — were injected all the
    // same: count them.
    for src in 0..st.heads.len() {
        loop {
            let due = inj.due(src);
            if due == u64::MAX {
                break;
            }
            if let Some(ev) = inj.draw(src, &k.sim.pattern, &k.layout, &k.sim.alive) {
                counters.count_injected(due, ev.flits, k, probe);
            }
        }
    }
}

/// Run one simulation at `offered_flits_per_node_cycle` on the compiled
/// representation.  Bit-identical to
/// [`NetworkSim::run_reference`](crate::NetworkSim::run_reference).
pub(crate) fn run_flat(
    sim: &NetworkSim<'_>,
    net: &CompiledNetwork,
    offered_flits_per_node_cycle: f64,
) -> SimReport {
    run_counted(sim, net, offered_flits_per_node_cycle).0
}

/// Run the cycle loop of one simulation at `offered_flits_per_node_cycle`
/// and return its final state, counters, epoch probe and link visits.
fn run_state<'n>(
    sim: &NetworkSim<'_>,
    net: &'n CompiledNetwork,
    offered_flits_per_node_cycle: f64,
) -> (St<'n>, Counters, EpochProbe, Visits) {
    let cfg = sim.config();
    let n = net.n;
    let num_vcs = net.num_vcs;
    let l = net.links.len();
    let layout = sim.topo.layout().clone();
    // The per-source arrival schedule, trace replay or Bernoulli: each
    // source's arrivals are the reference loop's, read one at a time.
    let injection = sim.schedule(offered_flits_per_node_cycle);

    // Wake-ups past the ring horizon are clamped inward — an early wake is
    // harmless (the visit just re-parks), a missed one would not be.
    // `max_flits` bounds the largest packet the run can carry, and with it
    // the longest wake-up; under trace replay the trace's largest message
    // is folded in.
    let mut max_flits = cfg
        .flits(PacketClass::Data)
        .max(cfg.flits(PacketClass::Control)) as u64;
    if let Some(t) = sim.trace.as_deref() {
        let largest = t.messages.iter().map(|m| m.flits as u64).max();
        max_flits = max_flits.max(largest.unwrap_or(0));
    }
    let ring_len = ring_len(max_flits, cfg.link_latency, cfg.router_latency);
    let ring_mask = ring_len as u64 - 1;

    let total_cycles = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
    let measure_start = cfg.warmup_cycles;
    let measure_end = cfg.warmup_cycles + cfg.measure_cycles;

    let k = Knobs {
        sim,
        layout,
        measure_start,
        measure_end,
        total_cycles,
        link_latency: cfg.link_latency,
        router_latency: cfg.router_latency,
        num_links: l,
    };
    let mut counters = Counters {
        stats: LatencyStats::new(),
        packets: 0,
        window_flits: 0,
        outstanding: 0,
        packets_ejected: 0,
        flits_ejected: 0,
    };
    let mut probe = EpochProbe::new(cfg, measure_start, measure_end);
    let mut st = St {
        net,
        num_vcs,
        vc_buffer_flits: cfg.vc_buffer_flits as u64,
        lstate: vec![LinkState::IDLE; l],
        buffered: 0,
        vc_occ: vec![0; l * num_vcs],
        slots: vec![Vec::new(); n],
        slabs: vec![Vec::new(); l],
        active: vec![0; l.div_ceil(64)],
        ring: vec![0; ring_len * l.div_ceil(64)],
        ring_mask,
        heads: vec![SourceHead::EMPTY; n],
    };
    let mut visits = Visits::default();
    run_cycles(
        &mut st,
        &k,
        injection,
        &mut counters,
        &mut probe,
        &mut visits,
    );
    (st, counters, probe, visits)
}

/// [`run_flat`], also returning the run's link visits.
fn run_counted(
    sim: &NetworkSim<'_>,
    net: &CompiledNetwork,
    offered_flits_per_node_cycle: f64,
) -> (SimReport, Visits) {
    let (st, counters, probe, visits) = run_state(sim, net, offered_flits_per_node_cycle);
    let cfg = sim.config();
    let n = net.n;
    let epochs = probe.finish(st.buffered);
    let measure_cycles = cfg.measure_cycles as f64;
    let injected = counters.window_flits as f64 / (n as f64 * measure_cycles);
    let accepted = counters.flits_ejected as f64 / (n as f64 * measure_cycles);
    let activity = ActivityProfile {
        measured_cycles: cfg.measure_cycles,
        links: net
            .links
            .iter()
            .enumerate()
            .map(|(idx, &(from, to))| LinkActivity {
                from,
                to,
                flits: st.lstate[idx].flits,
                busy_cycles: st.lstate[idx].busy_cycles,
            })
            .collect(),
    };
    let avg_latency_cycles = counters.stats.mean();
    let report = SimReport {
        offered_flits_per_node_cycle,
        injected_flits_per_node_cycle: injected,
        accepted_flits_per_node_cycle: accepted,
        avg_latency_cycles,
        p95_latency_cycles: counters.stats.percentile(0.95),
        p99_latency_cycles: counters.stats.percentile(0.99),
        avg_latency_ns: cfg.cycles_to_ns(avg_latency_cycles),
        packets_injected: counters.packets,
        packets_ejected: counters.packets_ejected,
        packets_unfinished: counters.outstanding,
        activity,
        epochs,
        latency: counters.stats,
    };
    (report, visits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, MclbConfig};
    use netsmith_topo::expert;
    use netsmith_topo::{Layout, LinkClass};

    #[test]
    fn compiled_tables_cover_every_routed_flow() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let net = CompiledNetwork::compile(&mesh, &table, Some(&alloc), &SimConfig::quick());
        assert_eq!(net.num_links(), mesh.num_directed_links());
        assert_eq!(net.num_routed_flows(), table.num_routed_flows());
        // Total hop entries = sum of per-flow hop counts.
        let expected_hops: usize = table.flows().map(|(_, p)| p.len() - 1).sum();
        assert_eq!(net.hops.len(), expected_hops);
        // Every compiled hop refers to a real link, in path order.
        for (flow, path) in table.flows() {
            let fi = flow.src * 20 + flow.dst;
            let off = net.path_offsets[fi] as usize;
            let end = net.path_offsets[fi + 1] as usize;
            assert_eq!(end - off, path.len() - 1);
            for (k, pair) in path.windows(2).enumerate() {
                let link = net.hops[off + k];
                assert_ne!(link, NONE);
                assert_eq!(net.links[link as usize], (pair[0], pair[1]));
            }
            let left = path.len() as u32 - 2;
            assert_eq!(net.first_hop(fi as u32), (net.hops[off], off as u32, left));
        }
    }

    #[test]
    fn unrouted_flows_compile_to_empty_ranges() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let table = RoutingTable::new(20, "empty");
        let net = CompiledNetwork::compile(&mesh, &table, None, &SimConfig::quick());
        assert_eq!(net.num_routed_flows(), 0);
        assert_eq!(net.hops.len(), 0);
        assert_eq!(net.first_hop(0).0, NONE);
    }

    #[test]
    fn flat_run_matches_reference_on_a_mesh() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        for load in [0.02, 0.3, 0.9] {
            assert_eq!(sim.run(load), sim.run_reference(load), "load {load}");
        }
    }

    #[test]
    fn epoch_probe_is_off_by_default_and_reference_never_fills_it() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        assert!(sim.run(0.2).epochs.is_none());
        assert!(sim.run_reference(0.2).epochs.is_none());
    }

    #[test]
    fn epoch_probe_slices_the_window_and_sums_to_the_report() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let config = SimConfig {
            epoch_cycles: 400, // 1500-cycle window -> 4 epochs, last short
            ..SimConfig::quick()
        };
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config.clone())
            .build();
        let report = sim.run(0.2);
        let series = report.epochs.as_ref().expect("probe enabled");
        assert_eq!(series.epoch_cycles, 400);
        assert_eq!(series.samples.len(), 4);
        let measure_start = config.warmup_cycles;
        let measure_end = config.warmup_cycles + config.measure_cycles;
        for (e, s) in series.samples.iter().enumerate() {
            assert_eq!(s.start_cycle, measure_start + e as u64 * 400);
            assert_eq!(s.end_cycle, (s.start_cycle + 400).min(measure_end));
            assert!(s.mean_latency_cycles >= 0.0);
            assert!(s.p95_latency_cycles >= s.mean_latency_cycles * 0.5);
        }
        // Per-epoch counters partition the window totals exactly.
        let n = 20.0;
        let measure = config.measure_cycles as f64;
        let injected: u64 = series.samples.iter().map(|s| s.injected_flits).sum();
        let accepted: u64 = series.samples.iter().map(|s| s.accepted_flits).sum();
        let ejected: u64 = series.samples.iter().map(|s| s.packets_ejected).sum();
        assert!(
            (injected as f64 / (n * measure) - report.injected_flits_per_node_cycle).abs() < 1e-12
        );
        assert!(
            (accepted as f64 / (n * measure) - report.accepted_flits_per_node_cycle).abs() < 1e-12
        );
        assert_eq!(ejected, report.packets_ejected);
        assert!(injected > 0, "a 20% load must inject in every window");
        // At a sustainable load with nonzero latency some buffers are
        // occupied at least at one epoch boundary.
        assert!(series.samples.iter().any(|s| s.accepted_flits > 0));
    }

    #[test]
    fn epoch_probe_does_not_perturb_the_simulation() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let off = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let on = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig {
                epoch_cycles: 250,
                ..SimConfig::quick()
            })
            .build();
        for load in [0.05, 0.3, 0.9] {
            let mut probed = on.run(load);
            assert!(probed.epochs.take().is_some());
            assert_eq!(probed, off.run(load), "load {load}");
        }
    }

    #[test]
    fn quiescence_skip_preserves_full_drain_semantics() {
        // A drain window far longer than the traffic needs: the skip path
        // must cut straight to the end without changing any statistic.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            drain_cycles: 100_000,
            ..SimConfig::default()
        };
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config)
            .build();
        let report = sim.run(0.1);
        assert_eq!(report, sim.run_reference(0.1));
        assert_eq!(report.packets_unfinished, 0);
    }

    #[test]
    fn ring_length_is_capped_whatever_the_largest_packet() {
        let cfg = SimConfig::default();
        let default_max = cfg.flits(PacketClass::Data) as u64;
        assert_eq!(
            ring_len(default_max, cfg.link_latency, cfg.router_latency),
            16
        );
        assert_eq!(ring_len(1_000, 1, 2), RING_MAX_BUCKETS);
        let largest = ring_len(u32::MAX as u64, u64::MAX, u64::MAX);
        assert!(largest.is_power_of_two() && largest <= RING_MAX_BUCKETS);
    }

    #[test]
    fn a_message_far_longer_than_the_ring_matches_reference() {
        // A validated one-hop message of 2^23 flits, re-issued every 1000
        // cycles: its link stays busy past the end of the run, and every
        // wake-up clamps to the capped ring and re-parks on each lap.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let message = netsmith_trace::TraceMessage {
            src: 0,
            dst: 1,
            flits: 1 << 23,
            issue: 0,
        };
        let trace = netsmith_trace::Trace::new(20, 1_000, vec![message]);
        trace.validate().unwrap();
        let native = trace.offered_flits_per_node_cycle();
        let sim = NetworkSim::builder(&mesh, &table)
            .config(SimConfig::quick())
            .trace(std::sync::Arc::new(trace))
            .build();
        let report = sim.run(native);
        assert_eq!(report, sim.run_reference(native));
        assert_eq!(
            report.packets_injected, 1,
            "cycle 1000 is the one in-window issue"
        );
        assert_eq!(report.packets_unfinished, 1);
    }

    /// Link visits of the compiled engine on two networks: the NDBT 8x6
    /// folded torus with Medium-class windows (`perf`'s
    /// `sim_48r_saturated` network) at loads 0.05, 0.2 and 0.4, and the
    /// MCLB 4x5 torus with a serving epoch's 100/400/200-cycle windows and
    /// epoch probe at loads 0.06 and 0.2.
    fn pinned_visits() -> Vec<(&'static str, f64, Visits)> {
        let mut out = Vec::new();
        let layout = Layout::noi_8x6();
        let torus = expert::folded_torus(&layout);
        let table = ndbt_route(&layout, &all_shortest_paths(&torus), 42).0;
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .config(SimConfig::for_class(LinkClass::Medium))
            .build();
        for load in [0.05, 0.2, 0.4] {
            out.push(("8x6 torus", load, run_counted(&sim, sim.compiled(), load).1));
        }
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let table = mclb_route(&all_shortest_paths(&torus), &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .config(SimConfig {
                warmup_cycles: 100,
                measure_cycles: 400,
                drain_cycles: 200,
                epoch_cycles: 400,
                ..SimConfig::default()
            })
            .build();
        for load in [0.06, 0.2] {
            out.push(("4x5 torus", load, run_counted(&sim, sim.compiled(), load).1));
        }
        out
    }

    /// Link visits per pinned run, recorded from the engine before the
    /// credit, commit and renumber wake rules: it woke links that then
    /// found no ready packet.
    const RECORDED_VISITS: [Visits; 5] = [
        visits(20_455, 422, 68, 9_047),
        visits(82_098, 6_453, 1_250, 46_741),
        visits(164_852, 25_440, 6_463, 91_790),
        visits(286, 6, 0, 94),
        visits(882, 27, 6, 288),
    ];

    const fn visits(commits: u64, busy: u64, credit_parks: u64, idle_parks: u64) -> Visits {
        Visits {
            commits,
            busy,
            credit_parks,
            idle_parks,
        }
    }

    fn total(v: &Visits) -> u64 {
        v.commits + v.busy + v.credit_parks + v.idle_parks
    }

    /// Under the wake rules the engine commits exactly what the recorded
    /// engine committed, in fewer visits, and never visits a link with no
    /// ready packet: the wake ring covers the longest packet here, so no
    /// wake fires early.
    #[test]
    fn link_visits_are_pinned() {
        let runs = pinned_visits();
        assert_eq!(runs.len(), RECORDED_VISITS.len());
        for ((net, load, v), recorded) in runs.into_iter().zip(RECORDED_VISITS) {
            eprintln!(
                "{net} @ {load}: {} visits (recorded {}): {} commits, {} busy, {} credit parks",
                total(&v),
                total(&recorded),
                v.commits,
                v.busy,
                v.credit_parks
            );
            assert_eq!(v.commits, recorded.commits, "{net} at load {load}");
            assert_eq!(v.idle_parks, 0, "{net} at load {load}");
            assert!(total(&v) < total(&recorded), "{net} at load {load}");
        }
    }

    /// A saturated 8x6 run cut off at the end of its window (no drain)
    /// leaves packets buffered mid-flight.  Every router slot points at a
    /// slab entry whose key carries that slot, every slab entry belongs to
    /// a slot of its link's upstream router, and the entries add up to the
    /// network-wide buffered flits.
    #[test]
    fn slabs_and_slot_maps_point_at_each_other() {
        let layout = Layout::noi_8x6();
        let torus = expert::folded_torus(&layout);
        let table = ndbt_route(&layout, &all_shortest_paths(&torus), 42).0;
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .config(SimConfig {
                drain_cycles: 0,
                ..SimConfig::for_class(LinkClass::Medium)
            })
            .build();
        let (st, ..) = run_state(&sim, sim.compiled(), 1.0);
        let (mut buffered, mut flits) = (0, 0);
        for (r, slots) in st.slots.iter().enumerate() {
            for (slot, &(o, pos)) in slots.iter().enumerate() {
                assert_ne!(o, NONE, "every NDBT hop is a physical link");
                assert_eq!(st.net.links[o as usize].0, r);
                let c = &st.slabs[o as usize][pos as usize];
                assert_eq!((c.key & SLOT_MASK) as usize, slot, "router {r} slot {slot}");
                flits += c.flits as u64;
            }
            buffered += slots.len();
        }
        assert_eq!(flits, st.buffered);
        for (o, slab) in st.slabs.iter().enumerate() {
            let from = st.net.links[o].0;
            for (pos, c) in slab.iter().enumerate() {
                let slot = (c.key & SLOT_MASK) as usize;
                assert_eq!(
                    st.slots[from].get(slot),
                    Some(&(o as u32, pos as u32)),
                    "link {o} entry {pos}"
                );
            }
        }
        assert!(buffered > 100, "only {buffered} packets left buffered");
    }
}
