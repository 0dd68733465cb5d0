//! One BSS under the discrete-event kernel: an AP, a churning client
//! population, a streaming broadcast source, and the DTIM delivery
//! loop.
//!
//! The engine compares two views of every client's ports: the AP's
//! real [`ClientPortTable`](hide_core::ap::ClientPortTable) (updated
//! only by UDP Port Messages that actually arrive, aged by the stale
//! timeout) and the *ground truth* of what the client listens on right
//! now, a `u64` mask over the scenario's sorted port universe kept in
//! its slot. At every DTIM the two are compared per suspended HIDE
//! client: flagged-and-useful is a proper wakeup, useful-but-unflagged
//! is a **missed wakeup** (a lost or expired refresh hid traffic the
//! client wanted), and flagged-but-useless is a **spurious wakeup**
//! (the AP woke the client on stale interests). With zero refresh loss
//! every re-sample of a slot's ports reaches the AP in the same event,
//! so both failure counts are provably zero — the invariant the tier-1
//! tests pin down.
//!
//! # Hot-path layout
//!
//! A DTIM with buffered traffic visits only the client slots it
//! charges. The population is stored **struct-of-arrays** (`Clients`),
//! and the state the sweep reads is kept as `u64` bitsets over the
//! slots (`SlotSet`): the suspended slots (associated and asleep), the
//! HIDE slots, and one *listens on* set per port of the scenario's
//! sorted port universe, the transpose of each slot's port mask. At a
//! non-empty DTIM:
//!
//! * flagged slots come from the AP's posting lists: one scan per burst
//!   port marks each slot it flags with the first burst port it is
//!   flagged on (the postings idiom the port table itself uses);
//! * useful slots are the OR of the burst ports' *listens on* sets, and
//!   a slot's first useful port is the lowest bit its port mask shares
//!   with the burst's;
//! * every pure count is a popcount over words: the receive-all
//!   baseline's suspended count, the useful opportunities, the deferred
//!   wakes of out-of-window scheduled clients, and the `τ_lp` lookup
//!   tallies of unflagged suspended HIDE clients, each of which scanned
//!   all m burst ports (count × m lookups, count × the present ports'
//!   hits).
//!
//! The sweep then visits, in slot order, only the suspended slots that
//! wake, miss or emit a traced `WakeDecision`. A flagged client's
//! tallies (flagged at burst index j, it scanned j + 1 ports) come from
//! a presence prefix-sum, so the per-client short-circuit scan this
//! replaced is reconstructed exactly and the metrics artifact is
//! unchanged byte for byte. Energy charges go to dense per-AID lanes
//! and materialize into the sorted [`AttributionLedger`] once, at the
//! end of the run.
//!
//! Beacons, and the bursts an awake radio hears, are not charged per
//! DTIM. Each client slot records where its current segment started on
//! a running clock and settles the difference into its lane when the
//! segment ends, touching the lane only if there was anything to
//! charge:
//!
//! * a *beacon segment* runs on the DTIM count (for a suspended
//!   scheduled-wake client, the count of in-window DTIMs only) from
//!   join to leave, broken at a scheduled-wake suspend or resume, and
//!   settles `beacons × beacon_nj`;
//! * an *awake segment* runs on the running sum of burst prices from
//!   join or resume to suspend or leave, and settles the bursts
//!   broadcast meanwhile.
//!
//! Both also settle at the end of the run. Integer adds commute, so
//! every lane and total equals the per-DTIM charge's. A DTIM with
//! nothing buffered costs O(1), and a non-empty one costs its postings
//! plus the slots it visits plus a few word operations per burst port.

use crate::error::FleetError;
use crate::fleet::FleetConfig;
use crate::kernel::{derive_seed, EventQueue};
use crate::profile::FleetStage;
use hide_core::ap::{AccessPoint, ApCtx};
use hide_core::error::CoreError;
use hide_energy::attribution::{joules_to_nj, AttributionLedger, ClientEnergy, WakePricing};
use hide_obs::{
    Counter, Distribution, MetricsSink, Recorder, SpanSink, Stage, TraceEventKind, TraceSink,
    WakeCause, WakeClass,
};
use hide_traces::record::TraceFrame;
use hide_traces::stream::FrameStream;
use hide_wifi::assoc::{AssociationRequest, Disassociation};
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::{Aid, MacAddr, MAX_AID};
use hide_wifi::phy::{self, DataRate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SSID every fleet BSS advertises.
const SSID: &str = "hide-fleet";

/// Sentinel in [`Engine::aid_slot`]: no client currently holds the AID.
const NO_SLOT: u32 = u32::MAX;

/// Kernel lanes ([`EventQueue::schedule_in`]) for the three timer
/// chains scheduled in time order: each DTIM schedules the next, each
/// arrival the next frame of the time-ordered stream, and each refresh
/// timer falls `refresh_interval_secs` after the event that schedules
/// it, which pops no earlier than any event before it.
const DTIM_LANE: usize = 0;
const ARRIVAL_LANE: usize = 1;
const REFRESH_LANE: usize = 2;

/// Deterministic tallies from one BSS run. Aggregated across the fleet
/// by field-wise addition ([`BssReport::merge_from`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BssReport {
    /// Kernel events processed within the horizon.
    pub events: u64,
    /// Broadcast frames drawn from the trace stream.
    pub frames: u64,
    /// Successful association exchanges.
    pub associations: u64,
    /// Disassociations (clients leaving).
    pub disassociations: u64,
    /// UDP Port Message refreshes transmitted by clients.
    pub refreshes_sent: u64,
    /// Refreshes lost before reaching the AP.
    pub refreshes_lost: u64,
    /// Port-table `(port, client)` entries aged out by the AP.
    pub entries_expired: u64,
    /// Suspended clients woken at a DTIM (legacy + HIDE).
    pub wakeups: u64,
    /// Wakeups of suspended HIDE clients specifically.
    pub hide_wakeups: u64,
    /// DTIMs where a suspended HIDE client had useful traffic but was
    /// not flagged (stale/lost refresh hid it).
    pub missed_wakeups: u64,
    /// DTIMs where a suspended HIDE client was flagged for traffic it
    /// no longer wanted.
    pub spurious_wakeups: u64,
    /// DTIMs where a suspended HIDE client had useful traffic at all
    /// (the denominator of the missed-wakeup rate).
    pub useful_opportunities: u64,
    /// Wake-ups of scheduled-wake clients inside their service window.
    pub scheduled_wakes: u64,
    /// Useful bursts a scheduled client deep-slept through because they
    /// fell outside its service window. Deferred, not missed: the AP
    /// still holds the traffic for the next window.
    pub deferred_wakeups: u64,
    /// Energy the same population would spend all-legacy (receive-all),
    /// nanojoules, priced with the ledger's integers.
    pub baseline_nj: u64,
    /// Airtime consumed by UDP Port Messages, seconds (Eq. 21
    /// numerator).
    pub refresh_airtime_secs: f64,
    /// Per-client, per-cause energy ledger (integer nanojoules), keyed
    /// by `(bss_index, aid)`: the run's one record of energy spent
    /// ([`AttributionLedger::spent_nj`]), plus the counterfactual
    /// forgone-suspend cost of missed wakeups.
    pub attribution: AttributionLedger,
}

impl BssReport {
    /// Adds `other`'s tallies into `self`. Field-wise addition, so
    /// folding shards in input order is deterministic.
    pub fn merge_from(&mut self, other: &BssReport) {
        self.events += other.events;
        self.frames += other.frames;
        self.associations += other.associations;
        self.disassociations += other.disassociations;
        self.refreshes_sent += other.refreshes_sent;
        self.refreshes_lost += other.refreshes_lost;
        self.entries_expired += other.entries_expired;
        self.wakeups += other.wakeups;
        self.hide_wakeups += other.hide_wakeups;
        self.missed_wakeups += other.missed_wakeups;
        self.spurious_wakeups += other.spurious_wakeups;
        self.useful_opportunities += other.useful_opportunities;
        self.scheduled_wakes += other.scheduled_wakes;
        self.deferred_wakeups += other.deferred_wakeups;
        self.baseline_nj += other.baseline_nj;
        self.refresh_airtime_secs += other.refresh_airtime_secs;
        self.attribution.merge_from(&other.attribution);
    }
}

/// Everything the kernel can schedule in a BSS.
#[derive(Debug, Clone)]
enum Event {
    /// DTIM boundary: age the table, evaluate the buffered burst.
    Dtim,
    /// A broadcast frame hits the air (pulled lazily from the stream).
    Arrival(TraceFrame),
    /// Client (re)joins the BSS.
    Join { client: usize, epoch: u64 },
    /// Client leaves the BSS.
    Leave { client: usize, epoch: u64 },
    /// Periodic UDP Port Message refresh.
    Refresh { client: usize, epoch: u64 },
    /// Client's screen goes off; it enters power-save.
    Suspend { client: usize, epoch: u64 },
    /// User wakes the device; radio stays awake.
    Resume { client: usize, epoch: u64 },
}

/// A set of client slots as a bitset: slot `i` is bit `i % 64` of
/// word `i / 64`, so the DTIM sweep combines 64 slots per operation.
#[derive(Debug, Clone)]
struct SlotSet(Vec<u64>);

impl SlotSet {
    /// An empty set over `slots` slots.
    fn new(slots: usize) -> Self {
        SlotSet(vec![0; slots.div_ceil(64)])
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// The set bits of `word`, lowest first.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Live state of the client population, struct-of-arrays: one slot per
/// client, parallel columns. The per-DTIM sweep reads the bitsets
/// (`suspended`, `hide`, `listens`) a word at a time, and touches the
/// other columns only at the slots it visits.
#[derive(Debug)]
struct Clients {
    macs: Vec<MacAddr>,
    /// Slots whose client runs HIDE.
    hide: SlotSet,
    /// Ground-truth listened-on ports right now, in draw order (the
    /// order the UDP Port Message lists them).
    ports: Vec<Vec<u16>>,
    /// The same ports as a mask over the engine's port universe: bit
    /// `u` is set when the client listens on `port_universe[u]`.
    port_masks: Vec<u64>,
    /// The masks transposed, all rows in one allocation: row `u`
    /// (`listen_bit`) holds the slots whose mask has bit `u`.
    listens: SlotSet,
    /// Assigned AID while associated.
    aids: Vec<Option<Aid>>,
    /// Bumped on every leave; events carrying an older epoch are stale
    /// and dropped, which cancels the previous presence period's timers
    /// without searching the queue.
    epochs: Vec<u64>,
    /// Associated slots whose client is suspended (cleared at leave).
    suspended: SlotSet,
    /// The most recent event that de-synchronized the AP's view of this
    /// client from ground truth (lost refresh, expiry, churn); cleared
    /// whenever a refresh is applied or the client (re)joins. This is
    /// the online form of the provenance analyzer's backward walk: at a
    /// missed wakeup the nearest de-sync event *is* the cause.
    last_desync: Vec<Option<WakeCause>>,
    /// Whether the client has re-sampled its ports since the AP last
    /// heard from it — the only way a *spurious* wake can arise.
    churned_since_sync: Vec<bool>,
    /// Memoized UDP Port Message for the slot's current port set —
    /// rebuilt only when `ports` are re-sampled (the message depends
    /// only on the slot's fixed MAC and its ports), so steady-state
    /// refreshes transmit without reconstructing the frame.
    msgs: Vec<Option<UdpPortMessage>>,
    /// The reading of the slot's beacon clock
    /// ([`Engine::beacon_clock`]) when its current beacon segment
    /// started; the beacons heard since are the clock minus this.
    beacon_marks: Vec<u64>,
    /// The reading of [`Engine::burst_clock`] when the slot's current
    /// awake segment started; meaningful while it is associated and
    /// awake.
    burst_marks: Vec<u64>,
    rngs: Vec<StdRng>,
}

impl Clients {
    /// Room for `n` clients over a port universe of `universe` ports.
    fn new(n: usize, universe: usize) -> Self {
        Clients {
            macs: Vec::with_capacity(n),
            hide: SlotSet::new(n),
            ports: Vec::with_capacity(n),
            port_masks: Vec::with_capacity(n),
            listens: SlotSet::new(universe * n.div_ceil(64) * 64),
            aids: Vec::with_capacity(n),
            epochs: Vec::with_capacity(n),
            suspended: SlotSet::new(n),
            last_desync: Vec::with_capacity(n),
            churned_since_sync: Vec::with_capacity(n),
            msgs: Vec::with_capacity(n),
            beacon_marks: Vec::with_capacity(n),
            burst_marks: Vec::with_capacity(n),
            rngs: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, mac: MacAddr, hide: bool, (ports, mask): (Vec<u16>, u64), rng: StdRng) {
        let i = self.macs.len();
        self.macs.push(mac);
        if hide {
            self.hide.insert(i);
        }
        for u in bits(mask) {
            self.listens.insert(self.listen_bit(u, i));
        }
        self.ports.push(ports);
        self.port_masks.push(mask);
        self.aids.push(None);
        self.epochs.push(0);
        self.last_desync.push(None);
        self.churned_since_sync.push(false);
        self.msgs.push(None);
        self.beacon_marks.push(0);
        self.burst_marks.push(0);
        self.rngs.push(rng);
    }

    /// Replaces slot `i`'s ports and moves it between the `listens`
    /// rows to match the new mask.
    fn set_ports(&mut self, i: usize, (ports, mask): (Vec<u16>, u64)) {
        for u in bits(self.port_masks[i]) {
            self.listens.remove(self.listen_bit(u, i));
        }
        for u in bits(mask) {
            self.listens.insert(self.listen_bit(u, i));
        }
        self.ports[i] = ports;
        self.port_masks[i] = mask;
    }

    /// Slot `i`'s bit in `listens`' row for universe port `u`: rows
    /// are as many whole words as the other slot sets.
    fn listen_bit(&self, u: usize, i: usize) -> usize {
        u * self.hide.0.len() * 64 + i
    }

    /// Word `w` of `listens`' row for universe port `u`.
    #[inline]
    fn listeners(&self, u: usize, w: usize) -> u64 {
        self.listens.0[u * self.hide.0.len() + w]
    }

    fn len(&self) -> usize {
        self.macs.len()
    }
}

/// Draws an exponential variate with the given mean.
fn exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples `k` distinct ports from the scenario's (deduplicated,
/// sorted) port universe, which holds at most 64 ports: the ports in
/// draw order, and their mask over the universe.
fn sample_ports(rng: &mut StdRng, universe: &[u16], k: usize) -> (Vec<u16>, u64) {
    let k = k.min(universe.len());
    let mut chosen: Vec<u16> = Vec::with_capacity(k);
    let mut mask = 0u64;
    while chosen.len() < k {
        let u = rng.gen_range(0..universe.len());
        if mask & (1 << u) == 0 {
            mask |= 1 << u;
            chosen.push(universe[u]);
        }
    }
    (chosen, mask)
}

/// Marks a burst on the port universe (both sorted ascending): bit `u`
/// of the returned mask is set when `universe[u]` is a burst port, and
/// then `burst_pos[u]` is its index in `burst`.
fn burst_mask(universe: &[u16], burst: &[u16], burst_pos: &mut [u32]) -> u64 {
    let mut mask = 0u64;
    for (j, p) in burst.iter().enumerate() {
        if let Ok(u) = universe.binary_search(p) {
            mask |= 1 << u;
            burst_pos[u] = j as u32;
        }
    }
    mask
}

/// Index in the burst-port list of the first burst port a client with
/// `port_mask` listens on. Both lists ascend, so the lowest common
/// universe bit is the lowest burst index.
fn first_useful(port_mask: u64, burst_mask: u64, burst_pos: &[u32]) -> Option<u32> {
    let common = port_mask & burst_mask;
    (common != 0).then(|| burst_pos[common.trailing_zeros() as usize])
}

/// Metrics counter for a missed wakeup with the given cause.
fn missed_cause_counter(cause: WakeCause) -> Counter {
    match cause {
        WakeCause::RefreshLost => Counter::FleetMissedRefreshLost,
        WakeCause::EntryExpired => Counter::FleetMissedEntryExpired,
        WakeCause::PortChurn => Counter::FleetMissedPortChurn,
        WakeCause::Proper | WakeCause::Unknown => Counter::FleetMissedUnknown,
    }
}

/// Metrics counter for a spurious wakeup with the given cause. A
/// spurious wake needs the AP to believe in ports the client left, so
/// port churn is the only attributable cause.
fn spurious_cause_counter(cause: WakeCause) -> Counter {
    match cause {
        WakeCause::PortChurn => Counter::FleetSpuriousPortChurn,
        _ => Counter::FleetSpuriousUnknown,
    }
}

/// The single-BSS discrete-event engine.
struct Engine<'a> {
    cfg: &'a FleetConfig,
    bssid: MacAddr,
    ap: AccessPoint,
    clients: Clients,
    /// AID value → client slot currently holding it ([`NO_SLOT`] when
    /// free). Inverse of `clients.aids`, maintained at join/leave, so
    /// postings scans and expiry reports resolve AIDs in O(1) instead
    /// of a linear search over the population.
    aid_slot: Vec<u32>,
    queue: EventQueue<Event>,
    stream: FrameStream,
    /// Buffered broadcast burst, each frame tagged with a per-shard id
    /// (1-based; 0 means "no frame") so wake decisions can cite the
    /// frame that caused them.
    buffered: Vec<(u64, TraceFrame)>,
    next_frame_id: u64,
    port_universe: Vec<u16>,
    /// Per-DTIM scratch: the burst's distinct destination ports,
    /// ascending.
    burst_ports: Vec<u16>,
    /// Per-DTIM scratch for [`burst_mask`]: universe index → burst
    /// index, valid at the bits of the current burst's mask.
    burst_pos: Vec<u32>,
    report: BssReport,
    /// Dense per-AID energy lanes plus touched marks, grown on first
    /// charge; materialized into `report.attribution` at the end of
    /// the run ([`AttributionLedger::from_sorted_rows`]), replacing a
    /// binary-search ledger insert per charge with an array write.
    lanes: Vec<ClientEnergy>,
    lane_touched: Vec<bool>,
    /// Per-DTIM scratch: the slots the AP flags for the burst.
    flagged: SlotSet,
    /// Per-DTIM scratch: for each slot in `flagged`, the index into
    /// the sorted burst-port list of the first port the AP flags it
    /// on.
    flagged_first: Vec<u32>,
    /// Per-DTIM scratch: `present_prefix[j]` = how many of the first
    /// `j` burst ports exist in the AP table — the prefix-sum that
    /// reconstructs exact `τ_lp` hit/miss tallies for the batched
    /// sweep.
    present_prefix: Vec<u32>,
    /// Wake and beacon prices in integer nanojoules, charged into the
    /// per-client ledger so engine-online attribution equals a
    /// trace-join (`count × price`) bit-for-bit.
    pricing: WakePricing,
    /// This shard's trace-source lane (the BSS index), the first half of
    /// every ledger key.
    source: u32,
    /// Negotiated wake schedule as `(interval, period)` DTIM counts —
    /// `Some` only under [`hide_policy::WakePolicy::ScheduledWake`].
    sched: Option<(u64, u64)>,
    /// DTIM boundaries so far: the schedule's clock (the 0-based index
    /// of the next boundary), and the beacon clock of every client but
    /// a suspended scheduled-wake one.
    dtims: u64,
    /// DTIM boundaries so far inside the service window — the beacon
    /// clock of a suspended scheduled-wake client. Equals `dtims`
    /// when no schedule is set.
    window_dtims: u64,
    /// Clients associated right now.
    associated: u64,
    /// Running sum of the burst prices of every DTIM with buffered
    /// traffic so far, nanojoules: the clock an awake client's burst
    /// charges settle against.
    burst_clock: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a FleetConfig, bss_index: usize) -> Self {
        let seed = derive_seed(cfg.seed, bss_index as u64);
        let specs =
            hide_sim::network::fleet(cfg.clients_per_bss, cfg.adoption, derive_seed(seed, 1));
        let bssid = MacAddr::station(0);
        let mut ap = AccessPoint::new(bssid);
        ap.set_ssid(SSID).expect("the fleet's SSID fits 32 octets");

        let mut port_universe = cfg.scenario.params().port_mix.ports();
        port_universe.sort_unstable();
        port_universe.dedup();

        let churn = &cfg.churn;
        let mut queue = EventQueue::with_seed(derive_seed(seed, 3));
        let stagger = cfg.duration_secs.min(churn.mean_absent_secs);
        let mut clients = Clients::new(specs.len(), port_universe.len());
        // Under non-HIDE policies every client associates legacy: no
        // port refreshes, no BTIM flags. The RNG draws are untouched
        // (the flag gates only protocol behavior), so a HIDE run's
        // event sequence is bit-identical to the pre-seam engine's.
        let hide_protocol = cfg.policy.uses_port_refresh();
        for (i, spec) in specs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 0x51ED));
            let ports = sample_ports(&mut rng, &port_universe, churn.ports_per_client);
            let join_at = rng.gen_range(0.0..stagger);
            queue.schedule(
                join_at,
                Event::Join {
                    client: i,
                    epoch: 0,
                },
            );
            clients.push(
                MacAddr::station(i as u32 + 1),
                spec.hide_enabled && hide_protocol,
                ports,
                rng,
            );
        }

        let mut stream = FrameStream::new(
            &cfg.scenario.params(),
            cfg.duration_secs,
            derive_seed(seed, 2),
        );
        if let Some(frame) = stream.next() {
            queue.schedule_in(ARRIVAL_LANE, frame.time, Event::Arrival(frame));
        }
        queue.schedule_in(DTIM_LANE, Self::dtim_interval(), Event::Dtim);

        let pricing = WakePricing::from_profile(&cfg.profile);

        Engine {
            cfg,
            bssid,
            ap,
            clients,
            aid_slot: vec![NO_SLOT; MAX_AID as usize + 1],
            queue,
            stream,
            buffered: Vec::new(),
            next_frame_id: 1,
            burst_ports: Vec::new(),
            burst_pos: vec![0; port_universe.len()],
            port_universe,
            report: BssReport::default(),
            lanes: Vec::new(),
            lane_touched: Vec::new(),
            flagged: SlotSet::new(specs.len()),
            flagged_first: vec![0; specs.len()],
            present_prefix: Vec::new(),
            pricing,
            source: bss_index as u32,
            sched: cfg
                .policy
                .schedule()
                .map(|s| (u64::from(s.interval_dtims), u64::from(s.period_dtims))),
            dtims: 0,
            window_dtims: 0,
            associated: 0,
            burst_clock: 0,
        }
    }

    /// Paper-default DTIM spacing: 102.4 ms beacons, DTIM period 1.
    fn dtim_interval() -> f64 {
        hide_wifi::timing::TIME_UNIT_SECS * 100.0
    }

    /// Dense energy lane for `aid`, grown and marked touched on first
    /// charge. Touch marks delimit exactly the lanes the sorted-ledger
    /// `entry` API would have created.
    #[inline]
    fn lane(&mut self, aid: Aid) -> &mut ClientEnergy {
        let v = aid.value() as usize;
        if self.lanes.len() <= v {
            self.lanes.resize(v + 1, ClientEnergy::default());
            self.lane_touched.resize(v + 1, false);
        }
        self.lane_touched[v] = true;
        &mut self.lanes[v]
    }

    /// The running DTIM count slot `i`'s beacons are charged against:
    /// every boundary, except that a suspended scheduled-wake client
    /// deep-sleeps through the beacons outside its service window.
    #[inline]
    fn beacon_clock(&self, i: usize) -> u64 {
        if self.sched.is_some() && self.clients.suspended.contains(i) {
            self.window_dtims
        } else {
            self.dtims
        }
    }

    /// Ends slot `i`'s beacon segment: charges `aid`'s lane the beacons
    /// heard since it started (touching the lane only if there were
    /// any) and starts the next segment at the clock's current reading.
    fn settle_beacons(&mut self, i: usize, aid: Aid) {
        let clock = self.beacon_clock(i);
        let beacons = clock - self.clients.beacon_marks[i];
        self.clients.beacon_marks[i] = clock;
        if beacons > 0 {
            self.lane(aid).beacon_nj += beacons * self.pricing.beacon_nj;
        }
    }

    /// Ends awake slot `i`'s awake segment: charges `aid`'s lane the
    /// bursts broadcast since it started, touching the lane only if
    /// there were any.
    fn settle_bursts(&mut self, i: usize, aid: Aid) {
        let heard = self.burst_clock - self.clients.burst_marks[i];
        if heard > 0 {
            self.lane(aid).burst_rx_nj += heard;
        }
    }

    /// Ends every segment of associated slot `i` (at leave, and at the
    /// end of the run).
    fn settle(&mut self, i: usize, aid: Aid) {
        self.settle_beacons(i, aid);
        if !self.clients.suspended.contains(i) {
            self.settle_bursts(i, aid);
        }
    }

    /// Transmits a UDP Port Message, possibly re-sampling ports (port
    /// churn, the only time ground truth moves while a client stays
    /// associated) and possibly losing the message on the way to the
    /// AP. Tx energy is charged either way — the client cannot know
    /// the message was lost.
    fn refresh<T: TraceSink>(
        &mut self,
        i: usize,
        aid: Aid,
        now: f64,
        trace: &mut T,
    ) -> Result<(), FleetError> {
        let churn = &self.cfg.churn;
        if churn.port_churn > 0.0 && self.clients.rngs[i].gen_bool(churn.port_churn) {
            let ports = sample_ports(
                &mut self.clients.rngs[i],
                &self.port_universe,
                churn.ports_per_client,
            );
            self.clients.set_ports(i, ports);
            self.clients.msgs[i] = None;
            self.clients.churned_since_sync[i] = true;
            self.clients.last_desync[i] = Some(WakeCause::PortChurn);
            if trace.is_enabled() {
                trace.emit(now, TraceEventKind::PortChurn { aid: aid.value() });
            }
        }
        if self.clients.msgs[i].is_none() {
            self.clients.msgs[i] = Some(
                UdpPortMessage::new(
                    self.clients.macs[i],
                    self.bssid,
                    self.clients.ports[i].iter().copied(),
                )
                .map_err(|e| FleetError::Core(CoreError::from(e)))?,
            );
        }
        let len_bytes = self.clients.msgs[i]
            .as_ref()
            .expect("memoized above")
            .len_bytes();
        let airtime = phy::airtime_of_total_bytes(len_bytes, DataRate::R1M);
        self.report.refreshes_sent += 1;
        self.report.refresh_airtime_secs += airtime;
        self.lane(aid).refresh_tx_nj += joules_to_nj(airtime * self.cfg.profile.tx_power);
        let lost = churn.refresh_loss > 0.0 && self.clients.rngs[i].gen_bool(churn.refresh_loss);
        if lost {
            self.report.refreshes_lost += 1;
            self.clients.last_desync[i] = Some(WakeCause::RefreshLost);
            if trace.is_enabled() {
                trace.emit(now, TraceEventKind::RefreshLost { aid: aid.value() });
            }
        } else {
            let msg = self.clients.msgs[i].as_ref().expect("memoized above");
            self.ap.process_port_message(msg, &mut ApCtx::at(now))?;
            self.clients.last_desync[i] = None;
            self.clients.churned_since_sync[i] = false;
            if trace.is_enabled() {
                trace.emit(now, TraceEventKind::RefreshApplied { aid: aid.value() });
            }
        }
        Ok(())
    }

    fn handle_join<T: TraceSink>(
        &mut self,
        i: usize,
        epoch: u64,
        now: f64,
        trace: &mut T,
    ) -> Result<(), FleetError> {
        let churn = &self.cfg.churn;
        if epoch != self.clients.epochs[i] {
            return Ok(());
        }
        let mut request = AssociationRequest::new(self.clients.macs[i], self.bssid, SSID);
        if self.clients.hide.contains(i) {
            request = request.with_hide_support();
        }
        let response = self.ap.handle_association_request(&request);
        let Some(aid) = response.aid() else {
            // AID space exhausted; retry after another absent dwell.
            let delay = exp(&mut self.clients.rngs[i], churn.mean_absent_secs);
            self.queue
                .schedule(now + delay, Event::Join { client: i, epoch });
            return Ok(());
        };
        self.clients.aids[i] = Some(aid);
        self.aid_slot[aid.value() as usize] = i as u32;
        self.clients.beacon_marks[i] = self.dtims;
        self.clients.burst_marks[i] = self.burst_clock;
        self.associated += 1;
        // A (re)join is a provenance sync point: the AP starts from a
        // clean slate for this AID.
        self.clients.last_desync[i] = None;
        self.clients.churned_since_sync[i] = false;
        self.report.associations += 1;
        if trace.is_enabled() {
            trace.emit(
                now,
                TraceEventKind::Join {
                    aid: aid.value(),
                    hide: self.clients.hide.contains(i),
                },
            );
        }

        let active_dwell = exp(&mut self.clients.rngs[i], churn.mean_active_secs);
        let present_dwell = exp(&mut self.clients.rngs[i], churn.mean_present_secs);
        if self.clients.hide.contains(i) {
            // First refresh rides along with association, so a loss-free
            // run never has an associated-but-unknown HIDE client.
            self.refresh(i, aid, now, trace)?;
            self.queue.schedule_in(
                REFRESH_LANE,
                now + churn.refresh_interval_secs,
                Event::Refresh { client: i, epoch },
            );
        }
        self.queue
            .schedule(now + active_dwell, Event::Suspend { client: i, epoch });
        self.queue
            .schedule(now + present_dwell, Event::Leave { client: i, epoch });
        Ok(())
    }

    fn handle_leave<T: TraceSink>(
        &mut self,
        i: usize,
        epoch: u64,
        now: f64,
        trace: &mut T,
    ) -> Result<(), FleetError> {
        if epoch != self.clients.epochs[i] {
            return Ok(());
        }
        let Some(aid) = self.clients.aids[i] else {
            return Ok(());
        };
        if trace.is_enabled() {
            trace.emit(now, TraceEventKind::Leave { aid: aid.value() });
        }
        self.settle(i, aid);
        self.clients.suspended.remove(i);
        self.associated -= 1;
        let notice = Disassociation::new(
            self.clients.macs[i],
            self.bssid,
            Disassociation::REASON_LEAVING,
        );
        self.ap.handle_disassociation(&notice)?;
        self.clients.aids[i] = None;
        self.aid_slot[aid.value() as usize] = NO_SLOT;
        self.clients.epochs[i] += 1;
        let epoch = self.clients.epochs[i];
        self.report.disassociations += 1;
        let absent_dwell = exp(&mut self.clients.rngs[i], self.cfg.churn.mean_absent_secs);
        self.queue
            .schedule(now + absent_dwell, Event::Join { client: i, epoch });
        Ok(())
    }

    fn handle_refresh<T: TraceSink>(
        &mut self,
        i: usize,
        epoch: u64,
        now: f64,
        trace: &mut T,
    ) -> Result<(), FleetError> {
        if epoch != self.clients.epochs[i] {
            return Ok(());
        }
        let Some(aid) = self.clients.aids[i] else {
            return Ok(());
        };
        self.refresh(i, aid, now, trace)?;
        self.queue.schedule_in(
            REFRESH_LANE,
            now + self.cfg.churn.refresh_interval_secs,
            Event::Refresh { client: i, epoch },
        );
        Ok(())
    }

    fn handle_suspend_resume(&mut self, i: usize, epoch: u64, now: f64, suspend: bool) {
        let churn = &self.cfg.churn;
        if epoch != self.clients.epochs[i] {
            return;
        }
        let Some(aid) = self.clients.aids[i] else {
            return;
        };
        if self.sched.is_some() {
            // The one state change that moves a slot between beacon
            // clocks: settle on the old one, restart on the new one.
            self.settle_beacons(i, aid);
        }
        if suspend {
            // Asleep, the radio hears a burst only when it wakes for it.
            self.settle_bursts(i, aid);
            self.clients.suspended.insert(i);
            let dwell = exp(&mut self.clients.rngs[i], churn.mean_suspended_secs);
            self.queue
                .schedule(now + dwell, Event::Resume { client: i, epoch });
        } else {
            self.clients.suspended.remove(i);
            self.clients.burst_marks[i] = self.burst_clock;
            let dwell = exp(&mut self.clients.rngs[i], churn.mean_active_secs);
            self.queue
                .schedule(now + dwell, Event::Suspend { client: i, epoch });
        }
        if self.sched.is_some() {
            self.clients.beacon_marks[i] = self.beacon_clock(i);
        }
    }

    /// First id among the buffered frames destined to `port` (0 when
    /// none) — the frame a wake decision cites as its trigger.
    fn first_frame_on(&self, port: u16) -> u64 {
        self.buffered
            .iter()
            .find(|(_, f)| f.dst_port == port)
            .map(|(id, _)| *id)
            .unwrap_or(0)
    }

    /// The DTIM boundary: age the AP table, then resolve the buffered
    /// burst against every associated client, attributing every missed
    /// and spurious wakeup to its causal event online (the nearest
    /// de-sync recorded in the client state — equivalent to the
    /// analyzer's backward walk over the trace).
    fn handle_dtim<T: TraceSink>(&mut self, now: f64, rec: &mut Recorder, trace: &mut T) {
        // Whether a scheduled-wake client's service window covers this
        // DTIM. Policies without a schedule are always "in window".
        let in_window = self
            .sched
            .is_none_or(|(interval, period)| self.dtims % interval < period);
        self.dtims += 1;
        self.window_dtims += u64::from(in_window);
        let expired = self
            .ap
            .expire_stale_port_entries(now - self.cfg.churn.stale_timeout_secs);
        self.report.entries_expired += expired.entries_removed;
        for &aid in &expired.clients {
            let slot = self.aid_slot[aid.value() as usize];
            if slot != NO_SLOT {
                self.clients.last_desync[slot as usize] = Some(WakeCause::EntryExpired);
            }
            if trace.is_enabled() {
                trace.emit(now, TraceEventKind::EntryExpired { aid: aid.value() });
            }
        }

        rec.observe(Distribution::FleetFramesPerDtim, self.buffered.len() as u64);
        rec.observe(
            Distribution::FleetPortOccupancy,
            self.ap.port_table().entry_count() as u64,
        );
        if trace.is_enabled() {
            trace.emit(
                now,
                TraceEventKind::DtimBoundary {
                    buffered: self.buffered.len() as u32,
                    table_entries: self.ap.port_table().entry_count() as u32,
                },
            );
        }

        // Empty-burst fast path: with nothing buffered the sweep below
        // charges nothing (beacons settle per presence segment), so the
        // boundary costs O(1) and the sweep cost tracks traffic, not
        // time. The receive-all baseline hears every beacon.
        if self.buffered.is_empty() {
            self.report.baseline_nj += self.associated * self.pricing.beacon_nj;
            let next = now + Self::dtim_interval();
            if next < self.cfg.duration_secs {
                self.queue.schedule_in(DTIM_LANE, next, Event::Dtim);
            }
            return;
        }

        let burst_rx_j: f64 = self
            .buffered
            .iter()
            .map(|(_, f)| f.airtime() * self.cfg.profile.rx_power)
            .sum();
        self.burst_ports.clear();
        self.burst_ports
            .extend(self.buffered.iter().map(|(_, f)| f.dst_port));
        self.burst_ports.sort_unstable();
        self.burst_ports.dedup();
        let m = self.burst_ports.len();

        // Batched flag pass: one postings scan per burst port marks the
        // slots the AP flags, each with the first burst port it is
        // flagged on — the work the sweep below would otherwise redo as
        // a per-client × per-port lookup matrix. Ground truth needs no
        // scan: the useful slots are the union of the burst ports'
        // `listens` sets, and a slot's first useful port is
        // `first_useful` of its mask.
        let burst = burst_mask(&self.port_universe, &self.burst_ports, &mut self.burst_pos);
        self.flagged.0.fill(0);
        self.present_prefix.clear();
        self.present_prefix.push(0);
        for (j, &p) in self.burst_ports.iter().enumerate() {
            let postings = self.ap.port_table().raw_postings(p);
            self.present_prefix
                .push(self.present_prefix[j] + postings.is_some() as u32);
            for &a in postings.unwrap_or_default() {
                let slot = self.aid_slot[a.value() as usize];
                if slot != NO_SLOT && !self.flagged.contains(slot as usize) {
                    self.flagged.insert(slot as usize);
                    self.flagged_first[slot as usize] = j as u32;
                }
            }
        }

        // Pre-rounded burst price: every client in this DTIM is charged
        // the same integer, keeping the ledger merge-exact. An awake
        // radio hears the burst either way, so awake clients settle
        // against the burst clock once per awake segment.
        let burst_rx_nj = joules_to_nj(burst_rx_j);
        self.burst_clock += burst_rx_nj;
        let pricing = self.pricing;
        // A scheduled-wake client wakes only inside its service window;
        // an out-of-window useful burst is deferred to the next window,
        // never missed (the AP still holds it). Legacy PSM (and the
        // legacy share of a HIDE fleet) wakes for any burst.
        let legacy_wakes = self.sched.is_none() || in_window;
        let (mut suspended, mut unflagged, mut deferred) = (0u64, 0u64, 0u64);
        let (mut lp_lookups, mut lp_hits) = (0u64, 0u64);
        for w in 0..self.flagged.0.len() {
            let asleep = self.clients.suspended.0[w];
            if asleep == 0 {
                continue;
            }
            let hide = asleep & self.clients.hide.0[w];
            let legacy = asleep & !hide;
            let flagged = self.flagged.0[w];
            let useful = bits(burst).fold(0, |acc, u| acc | self.clients.listeners(u, w));
            suspended += u64::from(asleep.count_ones());
            unflagged += u64::from((hide & !flagged).count_ones());
            self.report.useful_opportunities += u64::from((hide & useful).count_ones());
            // Only the slots that wake or miss are visited, in slot
            // order, so traced wake decisions keep their order.
            let mut visit = hide & (flagged | useful);
            if legacy_wakes {
                visit |= legacy;
            } else {
                deferred += u64::from((legacy & useful).count_ones());
            }
            for b in bits(visit) {
                let i = w * 64 + b;
                let aid = self.clients.aids[i].expect("suspended slots are associated");
                if legacy & (1 << b) != 0 {
                    self.report.wakeups += 1;
                    if self.sched.is_some() {
                        self.report.scheduled_wakes += 1;
                        rec.incr(Counter::FleetScheduledWakes);
                    }
                    let e = self.lane(aid);
                    e.charge_wake(WakeClass::Legacy, WakeCause::Proper, &pricing);
                    e.burst_rx_nj += burst_rx_nj;
                    if trace.is_enabled() {
                        trace.emit(
                            now,
                            TraceEventKind::WakeDecision {
                                aid: aid.value(),
                                port: 0,
                                frame_id: self.buffered.first().map(|(id, _)| *id).unwrap_or(0),
                                class: WakeClass::Legacy,
                                cause: WakeCause::Proper,
                            },
                        );
                    }
                    continue;
                }
                // Reconstruct the τ_lp accounting of the
                // short-circuiting per-port scan this batched pass
                // replaced: a client flagged at port index j scanned
                // j+1 ports (each hitting iff present, the last always
                // a hit). Unflagged clients are tallied after the loop.
                let flagged_port = if flagged & (1 << b) != 0 {
                    let fj = self.flagged_first[i] as usize;
                    lp_lookups += fj as u64 + 1;
                    lp_hits += u64::from(self.present_prefix[fj]) + 1;
                    Some(self.burst_ports[fj])
                } else {
                    None
                };
                let useful_port = first_useful(self.clients.port_masks[i], burst, &self.burst_pos)
                    .map(|j| self.burst_ports[j as usize]);
                let useful = useful_port.is_some();
                if let Some(port) = flagged_port {
                    self.report.wakeups += 1;
                    self.report.hide_wakeups += 1;
                    let (class, cause) = if useful {
                        rec.incr(Counter::FleetWakeupsProper);
                        (WakeClass::Proper, WakeCause::Proper)
                    } else {
                        self.report.spurious_wakeups += 1;
                        let cause = if self.clients.churned_since_sync[i] {
                            WakeCause::PortChurn
                        } else {
                            WakeCause::Unknown
                        };
                        rec.incr(spurious_cause_counter(cause));
                        (WakeClass::Spurious, cause)
                    };
                    let e = self.lane(aid);
                    e.charge_wake(class, cause, &pricing);
                    e.burst_rx_nj += burst_rx_nj;
                    if trace.is_enabled() {
                        trace.emit(
                            now,
                            TraceEventKind::WakeDecision {
                                aid: aid.value(),
                                port,
                                frame_id: self.first_frame_on(port),
                                class,
                                cause,
                            },
                        );
                    }
                } else if let Some(port) = useful_port {
                    self.report.missed_wakeups += 1;
                    let cause = self.clients.last_desync[i].unwrap_or(WakeCause::Unknown);
                    rec.incr(missed_cause_counter(cause));
                    self.lane(aid)
                        .charge_wake(WakeClass::Missed, cause, &pricing);
                    if trace.is_enabled() {
                        trace.emit(
                            now,
                            TraceEventKind::WakeDecision {
                                aid: aid.value(),
                                port,
                                frame_id: self.first_frame_on(port),
                                class: WakeClass::Missed,
                                cause,
                            },
                        );
                    }
                }
            }
        }
        // An unflagged suspended HIDE client scanned all m burst ports.
        lp_lookups += unflagged * m as u64;
        lp_hits += unflagged * u64::from(self.present_prefix[m]);
        self.report.deferred_wakeups += deferred;
        rec.add(Counter::FleetDeferredWakeups, deferred);
        // The receive-all baseline: every associated client hears the
        // beacon and the burst, and every suspended one wakes for it.
        self.report.baseline_nj +=
            self.associated * (pricing.beacon_nj + burst_rx_nj) + suspended * pricing.wake_nj;
        // One bulk τ_lp charge replaces per-call atomics; the snapshot
        // the run observes at the end is identical.
        self.ap
            .port_table()
            .charge_lookups(lp_lookups, lp_hits, lp_lookups - lp_hits);
        self.buffered.clear();

        let next = now + Self::dtim_interval();
        if next < self.cfg.duration_secs {
            self.queue.schedule_in(DTIM_LANE, next, Event::Dtim);
        }
    }

    /// Routes one popped event to its handler.
    #[inline]
    fn dispatch<T: TraceSink>(
        &mut self,
        now: f64,
        event: Event,
        rec: &mut Recorder,
        trace: &mut T,
    ) -> Result<(), FleetError> {
        match event {
            Event::Dtim => self.handle_dtim(now, rec, trace),
            Event::Arrival(frame) => {
                self.report.frames += 1;
                let id = self.next_frame_id;
                self.next_frame_id += 1;
                self.buffered.push((id, frame));
                if let Some(next) = self.stream.next() {
                    self.queue
                        .schedule_in(ARRIVAL_LANE, next.time, Event::Arrival(next));
                }
            }
            Event::Join { client, epoch } => self.handle_join(client, epoch, now, trace)?,
            Event::Leave { client, epoch } => self.handle_leave(client, epoch, now, trace)?,
            Event::Refresh { client, epoch } => self.handle_refresh(client, epoch, now, trace)?,
            Event::Suspend { client, epoch } => {
                self.handle_suspend_resume(client, epoch, now, true)
            }
            Event::Resume { client, epoch } => {
                self.handle_suspend_resume(client, epoch, now, false)
            }
        }
        Ok(())
    }

    fn run<T: TraceSink, P: SpanSink<FleetStage>>(
        mut self,
        rec: &mut Recorder,
        trace: &mut T,
        prof: &mut P,
    ) -> Result<BssReport, FleetError> {
        loop {
            let popping = prof.start();
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            prof.finish(FleetStage::QueuePop, popping);
            if now >= self.cfg.duration_secs {
                break;
            }
            self.report.events += 1;
            let stage = match &event {
                Event::Dtim => FleetStage::DtimSweep,
                Event::Arrival(_) => FleetStage::Arrival,
                Event::Refresh { .. } => FleetStage::Refresh,
                Event::Join { .. } | Event::Leave { .. } => FleetStage::Churn,
                Event::Suspend { .. } | Event::Resume { .. } => FleetStage::Churn,
            };
            let handling = prof.start();
            self.dispatch(now, event, rec, trace)?;
            prof.finish(stage, handling);
        }
        self.ap.port_table().observe_into(rec);
        // Every client still associated at the horizon ends its
        // segments here.
        for i in 0..self.clients.len() {
            if let Some(aid) = self.clients.aids[i] {
                self.settle(i, aid);
            }
        }
        // Materialize the dense lanes into the report's sorted ledger:
        // the source half of every key is this shard's constant, so
        // ascending AID order is ascending key order.
        let source = self.source;
        let rows = self
            .lane_touched
            .iter()
            .enumerate()
            .filter(|&(_, &touched)| touched)
            .map(|(v, _)| ((source, v as u16), self.lanes[v]))
            .collect();
        self.report.attribution = AttributionLedger::from_sorted_rows(rows);
        Ok(self.report)
    }
}

/// Runs one BSS to completion, returning its tallies and a recorder
/// holding only this shard's metrics (fanned into the fleet aggregate
/// in input order by the caller).
///
/// The shard's kernel streams structured events into `trace` in
/// simulation-time order and its per-stage wall time into `prof`.
/// Neither touches the metrics side — the engine performs online
/// provenance attribution either way, and spans land in the
/// fleet-local [`FleetStage`] profile, not the golden-gated recorder —
/// so tracing and profiling never change the `hide-metrics/1` artifact.
pub(crate) fn run_bss<T: TraceSink, P: SpanSink<FleetStage>>(
    cfg: &FleetConfig,
    bss_index: usize,
    trace: &mut T,
    prof: &mut P,
) -> Result<(BssReport, Recorder), FleetError> {
    let start = std::time::Instant::now();
    let setup = prof.start();
    let mut rec = Recorder::new();
    let engine = Engine::new(cfg, bss_index);
    prof.finish(FleetStage::Setup, setup);
    let loop_start = std::time::Instant::now();
    let report = engine.run(&mut rec, trace, prof)?;
    rec.add_span(
        Stage::FleetEventLoop,
        loop_start.elapsed().as_nanos() as u64,
    );

    rec.add(Counter::FleetBssRuns, 1);
    rec.add(Counter::FleetEvents, report.events);
    rec.add(Counter::FleetFrames, report.frames);
    rec.add(Counter::FleetAssociations, report.associations);
    rec.add(Counter::FleetDisassociations, report.disassociations);
    rec.add(Counter::FleetRefreshesSent, report.refreshes_sent);
    rec.add(Counter::FleetRefreshesLost, report.refreshes_lost);
    rec.add(Counter::FleetPortEntriesExpired, report.entries_expired);
    rec.add(Counter::FleetWakeups, report.wakeups);
    rec.add(Counter::FleetMissedWakeups, report.missed_wakeups);
    rec.add(Counter::FleetSpuriousWakeups, report.spurious_wakeups);
    rec.add(Counter::FleetScheduledWakes, report.scheduled_wakes);
    rec.add(Counter::FleetDeferredWakeups, report.deferred_wakeups);
    rec.observe(Distribution::FleetClientsPerBss, cfg.clients_per_bss as u64);
    rec.add_span(Stage::Fleet, start.elapsed().as_nanos() as u64);
    Ok((report, rec))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hide_obs::{NoopSpans, NoopTrace};

    /// Asserts that every ledger column in `t` is its event count in
    /// `report` times one integer price — the ledger's exact identities.
    /// Every client lists `ports_per_client` ports, so every UDP Port
    /// Message has the same length and the same price.
    pub(crate) fn assert_priced_exactly(cfg: &FleetConfig, report: &BssReport, t: &ClientEnergy) {
        let p = WakePricing::from_profile(&cfg.profile);
        let ports = 1..=cfg.churn.ports_per_client as u16;
        let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), ports).unwrap();
        let msg_nj = joules_to_nj(
            phy::airtime_of_total_bytes(msg.len_bytes(), DataRate::R1M) * cfg.profile.tx_power,
        );
        let r = report;
        assert_eq!(
            t.proper_nj,
            (r.hide_wakeups - r.spurious_wakeups) * p.wake_nj
        );
        assert_eq!(t.spurious_nj.total(), r.spurious_wakeups * p.wake_nj);
        assert_eq!(t.legacy_nj, (r.wakeups - r.hide_wakeups) * p.wake_nj);
        assert_eq!(t.missed_forgone_nj.total(), r.missed_wakeups * p.forgone_nj);
        assert_eq!(t.refresh_tx_nj, r.refreshes_sent * msg_nj);
    }

    #[test]
    fn exp_is_positive_with_requested_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exp(&mut rng, 5.0)).sum();
        assert!((sum / n as f64 - 5.0).abs() < 0.25);
    }

    #[test]
    fn sample_ports_distinct_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let universe = [80u16, 443, 1900, 5353, 17500];
        let (got, mask) = sample_ports(&mut rng, &universe, 3);
        assert_eq!(got.len(), 3);
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        // The mask marks exactly the chosen ports.
        let marked: Vec<u16> = (0..universe.len())
            .filter(|&u| mask & (1 << u) != 0)
            .map(|u| universe[u])
            .collect();
        assert_eq!(marked, dedup);
        // Requesting more than the universe clamps.
        let (all, mask) = sample_ports(&mut rng, &universe, 99);
        assert_eq!(all.len(), universe.len());
        assert_eq!(mask, 0b11111);
    }

    #[test]
    fn every_scenario_port_universe_fits_the_mask() {
        // A shift by 64 or more would wrap in release builds and mark
        // the wrong port, so each universe must fit in a `u64`.
        for scenario in hide_traces::scenario::Scenario::ALL {
            let mut universe = scenario.params().port_mix.ports();
            universe.sort_unstable();
            universe.dedup();
            assert!(
                universe.len() <= u64::BITS as usize,
                "{scenario:?} has {} ports",
                universe.len()
            );
        }
    }

    #[test]
    fn first_useful_port_is_the_lowest_burst_index() {
        let universe = [53u16, 80, 137, 1900, 5353, 17500];
        // 9999 is outside the universe: no client listens on it, but it
        // still takes a burst index.
        let burst = [80u16, 1900, 5353, 9999, 17500];
        let mut pos = vec![0; universe.len()];
        let mask = burst_mask(&universe, &burst, &mut pos);
        assert_eq!(mask, 0b111010);
        // Listening on 5353, 17500 and 1900 (and 53, not in the burst):
        // 1900 is the lowest burst index, 1.
        let client = (1 << 4) | (1 << 5) | (1 << 3) | 1;
        assert_eq!(first_useful(client, mask, &pos), Some(1));
        assert_eq!(first_useful(1 << 5, mask, &pos), Some(4));
        assert_eq!(first_useful(1 | (1 << 2), mask, &pos), None);
    }

    #[test]
    fn single_bss_run_produces_activity() {
        let cfg = FleetConfig {
            bss_count: 1,
            duration_secs: 20.0,
            ..FleetConfig::default()
        };
        let (report, rec) = run_bss(&cfg, 0, &mut NoopTrace, &mut NoopSpans).unwrap();
        assert!(report.events > 0);
        assert!(report.associations > 0);
        assert!(report.refreshes_sent > 0);
        let spent = report.attribution.spent_nj();
        assert!(spent > 0);
        assert!(report.baseline_nj >= spent / 2);
        assert_eq!(rec.counter(Counter::FleetBssRuns), 1);
        assert_eq!(rec.counter(Counter::FleetEvents), report.events);
        // The ledger prices each event with one integer, so every wake
        // and refresh column is exactly its count times that price.
        assert_priced_exactly(&cfg, &report, &report.attribution.totals());
        // All ledger keys live on this shard's source lane.
        assert!(report.attribution.rows().iter().all(|((s, _), _)| *s == 0));
    }

    #[test]
    fn run_bss_is_deterministic_per_index() {
        let cfg = FleetConfig {
            duration_secs: 15.0,
            ..FleetConfig::default()
        };
        let (r1, m1) = run_bss(&cfg, 3, &mut NoopTrace, &mut NoopSpans).unwrap();
        let (r2, m2) = run_bss(&cfg, 3, &mut NoopTrace, &mut NoopSpans).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(m1.to_json(), m2.to_json());
        // Different indices decorrelate.
        let (r3, _) = run_bss(&cfg, 4, &mut NoopTrace, &mut NoopSpans).unwrap();
        assert_ne!(r1, r3);
    }
}
