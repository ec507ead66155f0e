//! The radio network: positions, power-controlled transmission primitives,
//! and the synchronous round clock.
//!
//! Model (§II of the paper):
//!
//! * nodes are points in the unit square; the unit-disk graph at the
//!   operating radius defines who can hear whom;
//! * nodes set their transmission power adaptively, so a unicast to a node
//!   at distance `d` costs `a·d^α` and a *local broadcast* at power `ρ`
//!   costs `a·ρ^α` while reaching every node within `ρ`;
//! * communication is synchronous, one message per node per time step, and
//!   collision-free (RBN with the paper's no-collision simplification);
//! * a message carries `O(log n)` bits — message size is tracked only as a
//!   count since energy is size-independent in the model.

use crate::awake::{AwakeSchedule, AwakeStats};
use crate::energy::EnergyLedger;
use crate::fault::{FaultKind, FaultPlan, FaultStats};
use crate::membership::Membership;
use crate::topology::Topology;
use crate::trace::{TraceEvent, TraceSink};
use emst_geom::{BucketGrid, PathLoss, Point};

/// Energy configuration: the paper's radiated-energy model plus the
/// extended per-reception and idle/listen costs that §VIII defers to
/// future work (after Min & Chandrakasan's critique that transmit-only
/// accounting understates radio energy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Transmit path-loss model `w = a·d^α`.
    pub loss: PathLoss,
    /// Energy consumed per message *received* (0 in the paper's model).
    pub rx: f64,
    /// Energy consumed per node per round spent awake (0 in the paper's
    /// model).
    pub idle_per_round: f64,
}

impl EnergyConfig {
    /// The paper's §II model: transmit-only.
    pub fn paper() -> Self {
        EnergyConfig {
            loss: PathLoss::paper(),
            rx: 0.0,
            idle_per_round: 0.0,
        }
    }

    /// An extended model with explicit rx/idle costs.
    ///
    /// Does not validate the costs: a malformed configuration is reported
    /// through the typed [`EnergyConfig::check`] path (surfaced as a
    /// `ConfigError` by `Sim::validate`), not a panic — a long-lived
    /// service must be able to reject a bad energy config as a value.
    pub fn extended(loss: PathLoss, rx: f64, idle_per_round: f64) -> Self {
        EnergyConfig {
            loss,
            rx,
            idle_per_round,
        }
    }

    /// Validates the per-reception and idle costs, naming the offending
    /// field. Both must be finite and non-negative (`NaN` fails both
    /// comparisons and is rejected).
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.rx >= 0.0 && self.rx.is_finite()) {
            return Err("rx");
        }
        if !(self.idle_per_round >= 0.0 && self.idle_per_round.is_finite()) {
            return Err("idle_per_round");
        }
        Ok(())
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig::paper()
    }
}

/// Synchronous round clock. Protocols advance it by the true round cost of
/// each communication stage (e.g. a fragment broadcast advances by the
/// fragment-tree depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    rounds: u64,
}

impl Clock {
    /// Current round.
    #[inline]
    pub fn now(&self) -> u64 {
        self.rounds
    }

    /// Advances by one round.
    #[inline]
    pub fn tick(&mut self) {
        self.rounds += 1;
    }

    /// Advances by `n` rounds.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.rounds += n;
    }
}

/// A radio network over a fixed set of node positions.
///
/// Owns the energy ledger and round clock; borrows the positions. The
/// spatial grid is sized for `max_query_radius` but queries at larger radii
/// remain correct (they just scan more cells).
///
/// An optional [`TraceSink`] can be attached with [`RadioNet::set_sink`];
/// every transmission, clock advance, and protocol-reported phase/merge is
/// then mirrored to it as a [`TraceEvent`]. Without a sink, no event is
/// even constructed.
///
/// ```
/// use emst_geom::Point;
/// use emst_radio::RadioNet;
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
/// let mut net = RadioNet::new(&pts, 1.0);
/// net.unicast(0, 1, "demo/ping");           // energy d² = 0.25
/// net.local_broadcast(1, 0.6, "demo/hello"); // energy 0.6² = 0.36
/// assert_eq!(net.ledger().total_messages(), 2);
/// assert!((net.ledger().total_energy() - 0.61).abs() < 1e-12);
/// ```
pub struct RadioNet<'a> {
    points: &'a [Point],
    config: EnergyConfig,
    grid: BucketGrid<'a>,
    /// Cached CSR adjacency at one operating radius (see
    /// [`RadioNet::cache_topology`]); `None` until a protocol opts in.
    /// Behind an `Arc` so an [`RadioNet::install_topology`] caller (the
    /// instance-reuse API) can share one build across many runs.
    topo: Option<std::sync::Arc<Topology>>,
    /// Pre-built topologies registered by [`RadioNet::install_topology`];
    /// consulted by [`RadioNet::cache_topology`] before building, so a
    /// run that switches radii (EOPT) can have every radius prewarmed.
    prewarmed: Vec<std::sync::Arc<Topology>>,
    ledger: EnergyLedger,
    clock: Clock,
    sink: Option<&'a mut dyn TraceSink>,
    /// Fault schedule; `None` when fault injection is disabled (a no-op
    /// plan is stored as `None`, so disabled runs take identical paths).
    faults: Option<FaultPlan>,
    /// Drop/retry/timeout counters, reported through [`RadioNet::note_fault`].
    fault_stats: FaultStats,
    /// Live set; `None` when every node participates (an all-live
    /// membership is stored as `None`, mirroring the no-op fault-plan
    /// elision, so static runs take identical paths).
    members: Option<Membership>,
    /// Sleep/wake schedule; `None` when awake tracking was never
    /// requested (the default), so untracked runs take identical paths.
    /// An *installed* schedule with no windows is the observable
    /// all-awake case: counters accrue, charges stay bit-identical.
    awake: Option<AwakeSchedule>,
}

impl std::fmt::Debug for RadioNet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioNet")
            .field("n", &self.n())
            .field("config", &self.config)
            .field("ledger", &self.ledger)
            .field("clock", &self.clock)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> RadioNet<'a> {
    /// Creates a network with the paper's default energy model
    /// (`w = d²`).
    pub fn new(points: &'a [Point], max_query_radius: f64) -> Self {
        RadioNet::with_loss(points, max_query_radius, PathLoss::paper())
    }

    /// Creates a network with an explicit path-loss model (rx/idle stay 0).
    pub fn with_loss(points: &'a [Point], max_query_radius: f64, loss: PathLoss) -> Self {
        RadioNet::with_config(
            points,
            max_query_radius,
            EnergyConfig {
                loss,
                ..EnergyConfig::paper()
            },
        )
    }

    /// Creates a network with a full energy configuration.
    pub fn with_config(points: &'a [Point], max_query_radius: f64, config: EnergyConfig) -> Self {
        assert!(
            max_query_radius > 0.0,
            "need a positive query radius, got {max_query_radius}"
        );
        RadioNet {
            points,
            config,
            grid: BucketGrid::for_radius(points, max_query_radius),
            topo: None,
            prewarmed: Vec::new(),
            ledger: EnergyLedger::new(),
            clock: Clock::default(),
            sink: None,
            faults: None,
            fault_stats: FaultStats::default(),
            members: None,
            awake: None,
        }
    }

    /// Installs a fault schedule. A no-op plan ([`FaultPlan::is_noop`]) is
    /// discarded so fault-free runs keep their exact pre-fault behaviour
    /// (bit-identical ledgers and traces).
    ///
    /// # Panics
    ///
    /// If an effective membership is installed: fault injection and
    /// membership are mutually exclusive (see [`RadioNet::set_members`]).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        let effective = !plan.is_noop();
        assert!(
            !(effective && self.members.is_some()),
            "fault injection and an effective membership are mutually exclusive"
        );
        assert!(
            !(effective && self.awake.is_some()),
            "fault injection and an awake schedule are mutually exclusive"
        );
        self.faults = if effective { Some(plan) } else { None };
    }

    /// Installs the live set. An all-live membership
    /// ([`Membership::is_all_live`]) is discarded so static runs keep
    /// their exact pre-membership behaviour (bit-identical ledgers and
    /// traces) — the same elision contract as no-op fault plans.
    ///
    /// With an effective membership, broadcast delivery and reception
    /// accounting are filtered to live nodes; dead nodes keep their array
    /// slots (stable ids) but neither receive nor count as receivers.
    ///
    /// # Panics
    ///
    /// If an effective fault plan is installed: a plan models transient
    /// loss on a fixed node set, a membership models the authoritative
    /// live set — composing both would give two owners of per-round
    /// liveness.
    pub fn set_members(&mut self, members: Membership) {
        let effective = !members.is_all_live();
        assert!(
            !(effective && self.faults.is_some()),
            "fault injection and an effective membership are mutually exclusive"
        );
        self.members = if effective { Some(members) } else { None };
    }

    /// The active live set, if an effective membership is installed.
    #[inline]
    pub fn members(&self) -> Option<&Membership> {
        self.members.as_ref()
    }

    /// Whether node `u` is live (true for every node when no effective
    /// membership is installed).
    #[inline]
    pub fn live(&self, u: usize) -> bool {
        self.members.as_ref().is_none_or(|m| m.is_live(u))
    }

    /// Degree of `u` at `radius` counting live neighbours only (equals
    /// [`RadioNet::degree`] when no effective membership is installed).
    pub fn live_degree(&self, u: usize, radius: f64) -> usize {
        match &self.members {
            None => self.degree(u, radius),
            Some(m) => {
                if let Some(t) = self.topology_at(radius) {
                    t.ids(u).iter().filter(|&&v| m.is_live(v as usize)).count()
                } else {
                    let mut deg = 0usize;
                    self.grid.for_neighbors_within(u, radius, |v, _| {
                        if m.is_live(v) {
                            deg += 1;
                        }
                    });
                    deg
                }
            }
        }
    }

    /// Installs a sleep/wake schedule, enabling awake-round tracking.
    /// Unlike fault plans and memberships there is no no-op elision
    /// here: installing an all-awake schedule is exactly how a caller
    /// asks for the counters — charges stay bit-identical (pinned by
    /// golden tests), only the awake read-outs become `Some`. Callers
    /// that do not want tracking simply never call this.
    ///
    /// # Panics
    ///
    /// If the schedule does not cover this network's nodes, or if an
    /// effective fault plan is installed — a [`FaultPlan`] already owns
    /// adversarial sleep windows; composing both would give two owners
    /// of per-round wakefulness.
    pub fn set_awake(&mut self, schedule: AwakeSchedule) {
        assert_eq!(
            schedule.n(),
            self.n(),
            "awake schedule must cover every node"
        );
        assert!(
            self.faults.is_none(),
            "fault injection and an awake schedule are mutually exclusive"
        );
        self.awake = Some(schedule);
    }

    /// The installed sleep/wake schedule, if awake tracking is enabled.
    #[inline]
    pub fn awake_schedule(&self) -> Option<&AwakeSchedule> {
        self.awake.as_ref()
    }

    /// Schedules node `u` to sleep rounds `[from, to)` (protocol-driven
    /// `sleep_until` transition; see [`AwakeSchedule::sleep`]).
    ///
    /// # Panics
    ///
    /// If no awake schedule is installed.
    pub fn sleep_node(&mut self, u: usize, from: u64, to: u64) {
        self.awake
            .as_mut()
            .expect("sleep_node requires an installed awake schedule")
            .sleep(u, from, to);
    }

    /// Whether node `u` is awake at the current round (true for every
    /// node when no schedule is installed).
    #[inline]
    pub fn awake_now(&self, u: usize) -> bool {
        match &self.awake {
            None => true,
            Some(aw) => aw.is_awake(u, self.clock.now()),
        }
    }

    /// Total awake node-rounds accrued so far; `None` when awake
    /// tracking is not enabled. O(n) — called at stage boundaries only.
    pub fn awake_total(&self) -> Option<u64> {
        self.awake.as_ref().map(|a| a.total_awake_rounds())
    }

    /// Aggregate awake read-outs; `None` when tracking is not enabled.
    pub fn awake_stats(&self) -> Option<AwakeStats> {
        self.awake.as_ref().map(|a| a.stats())
    }

    /// Degree of `u` at `radius` counting only neighbours that can hear
    /// right now: live *and* awake. Equals [`RadioNet::live_degree`]
    /// whenever nobody can be asleep at the current round, which is the
    /// only case the clean charging paths ever see.
    fn hearing_degree(&self, u: usize, radius: f64) -> usize {
        let round = self.clock.now();
        match &self.awake {
            Some(aw) if aw.any_asleep_at(round) => {
                let mut deg = 0usize;
                let count = |v: usize, deg: &mut usize| {
                    if self.live(v) && aw.is_awake(v, round) {
                        *deg += 1;
                    }
                };
                if let Some(t) = self.topology_at(radius) {
                    for &v in t.ids(u) {
                        count(v as usize, &mut deg);
                    }
                } else {
                    self.grid.for_neighbors_within(u, radius, |v, _| {
                        count(v, &mut deg);
                    });
                }
                deg
            }
            _ => self.live_degree(u, radius),
        }
    }

    /// The active fault schedule, if fault injection is enabled.
    #[inline]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Fault counters accumulated so far.
    #[inline]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Records one fault event: bumps the matching counter and mirrors a
    /// [`TraceEvent::Fault`] to the sink, if any.
    pub fn note_fault(
        &mut self,
        what: FaultKind,
        kind: &'static str,
        src: usize,
        dst: Option<usize>,
    ) {
        self.fault_stats.note(what);
        let round = self.clock.now();
        self.emit(|| TraceEvent::Fault {
            round,
            what,
            kind,
            src,
            dst,
        });
    }

    /// Attaches a trace sink: every subsequent transmission, clock advance
    /// and protocol-reported phase/merge is mirrored to it. The sink
    /// borrow lives as long as the network's point borrow.
    pub fn set_sink(&mut self, sink: &'a mut dyn TraceSink) {
        self.sink = Some(sink);
    }

    /// Whether a trace sink is attached (events are being emitted).
    #[inline]
    pub fn traced(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event to the sink if one is attached; the closure defers
    /// event construction so untraced runs pay nothing.
    #[inline]
    fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&build());
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Node positions.
    #[inline]
    pub fn points(&self) -> &'a [Point] {
        self.points
    }

    /// Position of node `u`.
    #[inline]
    pub fn pos(&self, u: usize) -> Point {
        self.points[u]
    }

    /// Euclidean distance between two nodes.
    #[inline]
    pub fn dist(&self, u: usize, v: usize) -> f64 {
        self.points[u].dist(&self.points[v])
    }

    /// The path-loss model in force.
    #[inline]
    pub fn loss(&self) -> PathLoss {
        self.config.loss
    }

    /// The full energy configuration.
    #[inline]
    pub fn config(&self) -> EnergyConfig {
        self.config
    }

    /// Read access to the energy ledger.
    #[inline]
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Read access to the round clock.
    #[inline]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Mutable clock access for protocols that account rounds themselves.
    #[inline]
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Builds (or reuses) the cached CSR adjacency at `radius`. Fixed-radius
    /// protocols call this once up front; every subsequent degree query or
    /// collision-free broadcast at a matching radius is then a slice lookup
    /// instead of a grid scan. A second call with the same radius is free.
    ///
    /// The cached rows hold the same neighbours as a live [`BucketGrid`]
    /// query, in `(dist, id)` order rather than grid visit order. Only
    /// readers for which receiver order is unobservable use them: degrees,
    /// and broadcasts whose every inbox gets one delivery and whose
    /// reception charge is a count. [`RadioNet::neighbors_into`] always
    /// answers in grid visit order. Switching a protocol onto the cache
    /// therefore cannot change its energy ledger or trace.
    pub fn cache_topology(&mut self, radius: f64) {
        if self
            .topo
            .as_ref()
            .is_some_and(|t| radius_close(t.radius(), radius))
        {
            return;
        }
        if let Some(t) = self
            .prewarmed
            .iter()
            .find(|t| radius_close(t.radius(), radius))
        {
            self.topo = Some(t.clone());
            return;
        }
        self.topo = Some(std::sync::Arc::new(Topology::build(&self.grid, radius)));
    }

    /// Installs a pre-built shared topology (the instance-reuse fast path):
    /// subsequent [`RadioNet::cache_topology`] calls at the same radius
    /// reuse it instead of rebuilding. The rows must describe this
    /// network's points — [`crate::Topology::build`] over the same
    /// positions — which `Sim::from_instance` guarantees by construction.
    pub fn install_topology(&mut self, topo: std::sync::Arc<Topology>) {
        if self.topo.is_none() {
            self.topo = Some(topo.clone());
        }
        self.prewarmed.push(topo);
    }

    /// Shared handle to the cached topology, if one has been built —
    /// lets a caller keep the build alive past this run (instance reuse).
    #[inline]
    pub fn topology_handle(&self) -> Option<std::sync::Arc<Topology>> {
        self.topo.clone()
    }

    /// The cached topology, if one has been built.
    #[inline]
    pub fn topology(&self) -> Option<&Topology> {
        self.topo.as_deref()
    }

    /// The cached topology *at this radius*, if present. Callers that may
    /// run at varying radii use this to take the fast path only when it is
    /// actually valid. The match tolerates a couple of ulps (see
    /// `radius_close`): a caller that recomputes the operating radius
    /// through a different floating-point expression must not silently
    /// fall back to live-grid queries — that was a silent 4× slowdown.
    #[inline]
    pub fn topology_at(&self, radius: f64) -> Option<&Topology> {
        self.topo
            .as_deref()
            .filter(|t| radius_close(t.radius(), radius))
    }

    /// Neighbours of `u` within `radius` with distances (the unit-disk
    /// neighbourhood at the current operating radius).
    pub fn neighbors(&self, u: usize, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.neighbors_into(u, radius, &mut out);
        out
    }

    /// Fills `out` with the neighbours of `u` within `radius` in grid visit
    /// order, reusing the buffer's capacity. Faulted and contended
    /// deliveries replay this order, so it is always a grid query; a
    /// radius that matches the cached topology is snapped to the cache's,
    /// so the list holds exactly the cached row's neighbours.
    pub fn neighbors_into(&self, u: usize, radius: f64, out: &mut Vec<(usize, f64)>) {
        let radius = self.topology_at(radius).map_or(radius, |t| t.radius());
        self.grid.neighbors_within_into(u, radius, out);
    }

    /// Degree of `u` at `radius`.
    pub fn degree(&self, u: usize, radius: f64) -> usize {
        if let Some(t) = self.topology_at(radius) {
            t.degree(u)
        } else {
            self.grid.degree_within(u, radius)
        }
    }

    /// The spatial index (for read-only geometric queries by protocols).
    #[inline]
    pub fn grid(&self) -> &BucketGrid<'a> {
        &self.grid
    }

    /// Sends one message from `u` to `v` with power exactly reaching `v`:
    /// charges `a·d(u,v)^α`. Power control may exceed any nominal unit-disk
    /// radius (Co-NNT escalates beyond it), so no radius check is applied
    /// here; radius-disciplined protocols should assert on their side.
    pub fn unicast(&mut self, u: usize, v: usize, kind: &'static str) {
        assert!(u != v, "node {u} cannot unicast to itself");
        debug_assert!(
            self.live(u) && self.live(v),
            "unicast {u}→{v} with a dead endpoint"
        );
        debug_assert!(
            self.awake_now(u),
            "unicast {u}→{v} from a sleeping transmitter"
        );
        let e = self.config.loss.energy(&self.points[u], &self.points[v]);
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(1, self.config.rx);
        }
        let round = self.clock.now();
        let power = if self.sink.is_some() {
            self.points[u].dist(&self.points[v])
        } else {
            0.0
        };
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: Some(v),
            power,
            energy: e,
        });
    }

    /// [`RadioNet::unicast`] with the transmit energy precomputed by the
    /// caller — identical charges and trace event, but the (cacheable)
    /// path-loss evaluation is skipped. The energy must be exactly
    /// `loss().energy(&pos(u), &pos(v))`; protocols use this to memoise
    /// tree-edge energies that are charged once per phase.
    pub fn unicast_with_energy(&mut self, u: usize, v: usize, kind: &'static str, e: f64) {
        assert!(u != v, "node {u} cannot unicast to itself");
        debug_assert!(
            self.awake_now(u),
            "unicast {u}→{v} from a sleeping transmitter"
        );
        debug_assert_eq!(
            e.to_bits(),
            self.config
                .loss
                .energy(&self.points[u], &self.points[v])
                .to_bits(),
            "prepaid unicast energy must match the live path-loss value"
        );
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(1, self.config.rx);
        }
        let round = self.clock.now();
        let power = if self.sink.is_some() {
            self.points[u].dist(&self.points[v])
        } else {
            0.0
        };
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: Some(v),
            power,
            energy: e,
        });
    }

    /// A request/reply exchange between `u` and `v`: two messages, total
    /// energy `2·a·d^α` (§II's bidirectional cost).
    pub fn exchange(&mut self, u: usize, v: usize, kind: &'static str) {
        self.unicast(u, v, kind);
        self.unicast(v, u, kind);
    }

    /// Local broadcast: `u` transmits once at power `radius`, reaching every
    /// node within `radius`. Charges `a·radius^α` for the single
    /// transmission and returns the receivers (excluding `u`).
    pub fn local_broadcast(
        &mut self,
        u: usize,
        radius: f64,
        kind: &'static str,
    ) -> Vec<(usize, f64)> {
        let mut receivers = Vec::new();
        self.local_broadcast_into(u, radius, kind, &mut receivers);
        receivers
    }

    /// [`RadioNet::local_broadcast`] into a caller-owned scratch buffer:
    /// identical charges, receivers, and trace event, but no per-call
    /// allocation once the buffer has warmed up. The receiver list is
    /// served from the cached topology when one matches `radius` — then in
    /// `(dist, id)` order, each distance recomputed with `Point::dist`
    /// (the grid's value bit for bit) — and from a grid query otherwise.
    pub fn local_broadcast_into(
        &mut self,
        u: usize,
        radius: f64,
        kind: &'static str,
        receivers: &mut Vec<(usize, f64)>,
    ) {
        assert!(radius >= 0.0, "negative broadcast radius");
        debug_assert!(self.awake_now(u), "broadcast from sleeping transmitter {u}");
        let e = self.config.loss.energy_for_distance(radius);
        self.ledger.charge(kind, e);
        receivers.clear();
        if let Some(t) = self.topology_at(radius) {
            let p = self.points[u];
            receivers.extend(
                t.ids(u)
                    .iter()
                    .map(|&v| (v as usize, p.dist(&self.points[v as usize]))),
            );
        } else {
            self.grid.neighbors_within_into(u, radius, receivers);
        }
        // Dead nodes are not delivered to: the transmission still radiates
        // (and is charged) at full power, but only live nodes hear it.
        if let Some(m) = &self.members {
            receivers.retain(|&(v, _)| m.is_live(v));
        }
        let round = self.clock.now();
        // Sleeping nodes hear nothing either — but unlike dead nodes they
        // come back. The `any_asleep_at` pre-check keeps the all-awake
        // case on the identical path (no retain call at all).
        if let Some(aw) = &self.awake {
            if aw.any_asleep_at(round) {
                receivers.retain(|&(v, _)| aw.is_awake(v, round));
            }
        }
        if self.config.rx > 0.0 {
            self.ledger
                .charge_rx(receivers.len() as u64, self.config.rx);
        }
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: None,
            power: radius,
            energy: e,
        });
    }

    /// Charges a broadcast without materialising the receiver list (for
    /// protocols that already know their neighbourhood).
    /// NOTE: under a non-zero rx cost this still charges receivers (via a
    /// degree query) so the two broadcast flavours stay energy-equivalent.
    pub fn local_broadcast_silent(&mut self, u: usize, radius: f64, kind: &'static str) {
        assert!(radius >= 0.0, "negative broadcast radius");
        debug_assert!(self.awake_now(u), "broadcast from sleeping transmitter {u}");
        let e = self.config.loss.energy_for_distance(radius);
        self.ledger.charge(kind, e);
        if self.config.rx > 0.0 {
            let deg = self.hearing_degree(u, radius) as u64;
            self.ledger.charge_rx(deg, self.config.rx);
        }
        let round = self.clock.now();
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src: u,
            dst: None,
            power: radius,
            energy: e,
        });
    }

    /// Advances the round clock by one, charging idle energy for every
    /// node under the extended model. All protocol code advances time
    /// through this (or [`RadioNet::advance_rounds`]) so idle accounting
    /// cannot be bypassed.
    pub fn tick_round(&mut self) {
        self.advance_rounds(1);
    }

    /// Advances the round clock by `k`, charging `k·n·idle_per_round`
    /// (awake live nodes only: dead nodes draw no idle power, and a node
    /// inside a sleep window pays nothing for the rounds it sleeps).
    /// With an awake schedule installed this is also where awake-round
    /// accounting happens — every clock movement goes through here, so
    /// protocols cannot bypass it.
    pub fn advance_rounds(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        let from = self.clock.now();
        self.clock.advance(k);
        let to = self.clock.now();
        let mut awake_node_rounds: Option<u64> = None;
        if let Some(aw) = self.awake.as_mut() {
            let members = self.members.as_ref();
            awake_node_rounds =
                Some(aw.on_advance(from, to, |u| members.is_none_or(|m| m.is_live(u))));
        }
        if self.config.idle_per_round > 0.0 {
            match awake_node_rounds {
                // Dead nodes draw no idle power: only the live set listens.
                None => {
                    let awake = self.members.as_ref().map_or(self.n(), |m| m.live_count());
                    self.ledger
                        .charge_idle(k as f64 * awake as f64 * self.config.idle_per_round);
                }
                // `k·count` and the schedule's node-round total are exact
                // integers below 2^53, so the all-awake case multiplies
                // out bit-identically to the untracked branch above.
                Some(node_rounds) => self
                    .ledger
                    .charge_idle(node_rounds as f64 * self.config.idle_per_round),
            }
        }
        self.emit(|| TraceEvent::Rounds { from, to });
    }

    /// Charges one transmission attempt by `src` at an explicit power and
    /// energy — used by the contention layer to account ALOHA retries
    /// (each retry radiates the full transmit energy again).
    pub fn charge_attempt(&mut self, kind: &'static str, src: usize, power: f64, energy: f64) {
        self.charge_tx(kind, src, None, power, energy);
    }

    /// [`RadioNet::charge_attempt`] with an explicit destination: one
    /// transmit charge (no reception accounting — the caller decides which
    /// receivers actually hear it). The reliability layer uses this so
    /// retried unicasts keep their `dst` in the trace.
    pub fn charge_tx(
        &mut self,
        kind: &'static str,
        src: usize,
        dst: Option<usize>,
        power: f64,
        energy: f64,
    ) {
        self.ledger.charge(kind, energy);
        let round = self.clock.now();
        self.emit(|| TraceEvent::Message {
            round,
            kind,
            src,
            dst,
            power,
            energy,
        });
    }

    /// Reports a protocol phase transition to the trace sink (no energy or
    /// clock effect). `scope` namespaces the protocol (`"ghs"`, `"eopt1"`,
    /// …), `index` counts phases within it, `stage` labels the step.
    pub fn note_phase(&mut self, scope: &'static str, index: u64, stage: &'static str) {
        let round = self.clock.now();
        self.emit(|| TraceEvent::Phase {
            round,
            scope,
            index,
            stage,
        });
    }

    /// Reports a fragment merge to the trace sink (no energy or clock
    /// effect): `absorbed` fragments joined the fragment led by `leader`,
    /// which now has `size` members.
    pub fn note_merge(&mut self, leader: usize, absorbed: usize, size: usize) {
        let round = self.clock.now();
        self.emit(|| TraceEvent::Merge {
            round,
            leader,
            absorbed,
            size,
        });
    }

    /// Publishes a completed stage's resource deltas to the sink (pure
    /// telemetry: no ledger or clock effect). Called by the stage runtime
    /// at every stage boundary.
    pub fn note_stage(&mut self, mark: crate::trace::StageMark) {
        self.emit(|| TraceEvent::Stage(mark));
    }

    /// Charges `count` successful receptions under the extended model
    /// (no-op when the rx cost is zero).
    pub fn charge_receptions(&mut self, count: u64) {
        if self.config.rx > 0.0 {
            self.ledger.charge_rx(count, self.config.rx);
        }
    }

    /// Takes the ledger out (e.g. to merge into a parent protocol's stats),
    /// leaving an empty one.
    pub fn take_ledger(&mut self) -> EnergyLedger {
        std::mem::take(&mut self.ledger)
    }
}

/// Whether a cached-topology radius matches a query radius.
///
/// Bitwise equality plus a two-ulp tolerance: operating radii are always
/// recomputed through closed-form expressions (`paper_phase2_radius` and
/// friends), so a mismatch of one or two ulps means "the same radius via a
/// different floating-point expression", not a different operating radius.
/// Serving the cache there is sound — a node whose distance falls strictly
/// between two radii a couple of ulps apart would change the neighbourhood,
/// but positions are continuous samples and such coincidences do not occur
/// at f64 resolution. Genuinely different radii (protocol phase changes)
/// differ by many orders of magnitude more and still rebuild/fall through.
fn radius_close(cached: f64, query: f64) -> bool {
    if cached.to_bits() == query.to_bits() {
        return true;
    }
    cached.is_finite()
        && query.is_finite()
        && cached > 0.0
        && query > 0.0
        && cached.to_bits().abs_diff(query.to_bits()) <= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points};

    #[test]
    fn clock_advances() {
        let mut c = Clock::default();
        assert_eq!(c.now(), 0);
        c.tick();
        c.advance(4);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn unicast_charges_squared_distance() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.unicast(0, 1, "t");
        assert!((net.ledger().total_energy() - 0.25).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 1);
    }

    #[test]
    fn exchange_is_twice_unicast() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.exchange(0, 1, "t");
        assert!((net.ledger().total_energy() - 0.5).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot unicast to itself")]
    fn self_unicast_rejected() {
        let pts = vec![Point::new(0.0, 0.0)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.unicast(0, 0, "t");
    }

    #[test]
    fn broadcast_charges_radius_power_and_reaches_disk() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.55, 0.5),
            Point::new(0.9, 0.9),
        ];
        let mut net = RadioNet::new(&pts, 1.0);
        let rcv = net.local_broadcast(0, 0.1, "b");
        assert_eq!(rcv.len(), 1);
        assert_eq!(rcv[0].0, 1);
        assert!((net.ledger().total_energy() - 0.01).abs() < 1e-15);
        assert_eq!(net.ledger().total_messages(), 1);
    }

    #[test]
    fn broadcast_silent_charges_same_energy() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.5)];
        let mut a = RadioNet::new(&pts, 1.0);
        let mut b = RadioNet::new(&pts, 1.0);
        a.local_broadcast(0, 0.2, "b");
        b.local_broadcast_silent(0, 0.2, "b");
        assert_eq!(a.ledger().total_energy(), b.ledger().total_energy());
    }

    #[test]
    fn neighbors_respect_radius() {
        let pts = uniform_points(300, &mut trial_rng(71, 0));
        let net = RadioNet::new(&pts, 0.1);
        for u in [0usize, 100, 299] {
            let nb = net.neighbors(u, 0.1);
            for &(v, d) in &nb {
                assert!(d <= 0.1 + 1e-12);
                assert!((net.dist(u, v) - d).abs() < 1e-12);
            }
            assert_eq!(net.degree(u, 0.1), nb.len());
            let brute = (0..300)
                .filter(|&v| v != u && pts[u].dist(&pts[v]) <= 0.1)
                .count();
            assert_eq!(nb.len(), brute);
        }
    }

    #[test]
    fn queries_beyond_grid_radius_are_correct() {
        // Grid sized for 0.05 but queried at 0.5 must still be exhaustive.
        let pts = uniform_points(200, &mut trial_rng(72, 0));
        let net = RadioNet::new(&pts, 0.05);
        let nb = net.neighbors(7, 0.5);
        let brute = (0..200)
            .filter(|&v| v != 7 && pts[7].dist(&pts[v]) <= 0.5)
            .count();
        assert_eq!(nb.len(), brute);
    }

    #[test]
    fn cached_topology_broadcasts_are_bit_identical() {
        // The same broadcast sequence, once against the grid and once
        // against the cached topology, must reach the same receivers with
        // the same distance bits (the cached row lists them in `(dist, id)`
        // order, the grid in visit order; no caller can observe which) and
        // leave identical degrees, ledgers and traces.
        use crate::trace::JsonlSink;
        let pts = uniform_points(200, &mut trial_rng(73, 0));
        let r = 0.09;
        let (mut plain_sink, mut cached_sink) =
            (JsonlSink::new(Vec::new()), JsonlSink::new(Vec::new()));
        let (plain_ledger, cached_ledger) = {
            let config = EnergyConfig::extended(PathLoss::paper(), 0.001, 0.0);
            let mut plain = RadioNet::with_config(&pts, r, config);
            let mut cached = RadioNet::with_config(&pts, r, config);
            plain.set_sink(&mut plain_sink);
            cached.set_sink(&mut cached_sink);
            cached.cache_topology(r);
            assert!(cached.topology_at(r).is_some());
            assert!(cached.topology_at(r * 0.5).is_none());
            let by_id = |v: &[(usize, f64)]| {
                let mut v: Vec<(usize, u64)> = v.iter().map(|&(id, d)| (id, d.to_bits())).collect();
                v.sort_unstable();
                v
            };
            let mut buf = Vec::new();
            for u in 0..200 {
                let a = plain.local_broadcast(u, r, "b");
                cached.local_broadcast_into(u, r, "b", &mut buf);
                assert_eq!(by_id(&a), by_id(&buf), "node {u}");
                assert_eq!(plain.degree(u, r), cached.degree(u, r));
                plain.tick_round();
                cached.tick_round();
            }
            (plain.take_ledger(), cached.take_ledger())
        };
        assert_eq!(
            plain_ledger.total_energy().to_bits(),
            cached_ledger.total_energy().to_bits()
        );
        assert_eq!(
            plain_ledger.total_messages(),
            cached_ledger.total_messages()
        );
        assert_eq!(plain_ledger.rx_count(), cached_ledger.rx_count());
        assert!(plain_ledger.rx_count() > 0);
        assert_eq!(
            plain_ledger.rx_energy().to_bits(),
            cached_ledger.rx_energy().to_bits()
        );
        let plain_trace = plain_sink.finish().unwrap();
        assert!(!plain_trace.is_empty());
        assert_eq!(plain_trace, cached_sink.finish().unwrap());
    }

    #[test]
    fn cache_topology_is_idempotent_and_radius_checked() {
        let pts = uniform_points(50, &mut trial_rng(74, 0));
        let mut net = RadioNet::new(&pts, 0.1);
        assert!(net.topology().is_none());
        net.cache_topology(0.1);
        let edges = net.topology().unwrap().directed_edges();
        net.cache_topology(0.1); // no-op rebuild
        assert_eq!(net.topology().unwrap().directed_edges(), edges);
        net.cache_topology(0.2); // different radius → rebuilt
        assert!(net.topology_at(0.2).is_some());
        assert!(net.topology_at(0.1).is_none());
        assert!(net.topology().unwrap().directed_edges() >= edges);
    }

    #[test]
    fn neighbors_into_matches_neighbors_under_cache_mismatch() {
        // A cached topology at a *different* radius must not poison
        // queries at other radii, and at its own radius the answer is
        // still the grid query, in grid visit order rather than the
        // cached row's `(dist, id)` order.
        let pts = uniform_points(150, &mut trial_rng(75, 0));
        let r0 = 0.1;
        let mut net = RadioNet::new(&pts, r0);
        net.cache_topology(r0);
        let mut buf = Vec::new();
        let mut unsorted = 0;
        for u in 0..150 {
            for r in [0.02, r0, 0.3] {
                net.neighbors_into(u, r, &mut buf);
                assert_eq!(buf, net.neighbors(u, r), "u={u} r={r}");
                assert_eq!(buf, net.grid().neighbors_within(u, r), "u={u} r={r}");
            }
            net.neighbors_into(u, r0, &mut buf);
            unsorted += usize::from(!buf.windows(2).all(|w| w[0].1 <= w[1].1));
        }
        assert!(
            unsorted > 0,
            "some grid row must differ from its sorted row"
        );
    }

    #[test]
    fn topology_cache_tolerates_ulp_recomputed_radius() {
        // Regression: a caller recomputing the operating radius through a
        // different floating-point expression lands a few ulps off; the
        // bitwise compare used to miss the cache silently (a 4× slowdown),
        // and a second `cache_topology` call used to rebuild from scratch.
        let pts = uniform_points(120, &mut trial_rng(76, 0));
        let r = (9.0f64 * (120f64).ln() / 120.0).sqrt();
        let mut net = RadioNet::new(&pts, r);
        net.cache_topology(r);
        for ulps in [1u64, 2] {
            let r_off = f64::from_bits(r.to_bits() + ulps);
            assert!(
                net.topology_at(r_off).is_some(),
                "+{ulps} ulp must still hit the cache"
            );
            let r_off = f64::from_bits(r.to_bits() - ulps);
            assert!(
                net.topology_at(r_off).is_some(),
                "-{ulps} ulp must still hit the cache"
            );
        }
        // Genuinely different radii still miss (and rebuild on request).
        assert!(net.topology_at(r * 0.5).is_none());
        assert!(net.topology_at(r * 1.01).is_none());
        let r_near = f64::from_bits(r.to_bits() + 1);
        net.cache_topology(r_near); // must be a no-op, not a rebuild
        assert_eq!(net.topology().unwrap().radius().to_bits(), r.to_bits());
    }

    #[test]
    fn noop_fault_plan_is_discarded() {
        use crate::fault::FaultPlan;
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut net = RadioNet::new(&pts, 1.0);
        net.set_faults(FaultPlan::none().seed(9).retries(7));
        assert!(net.faults().is_none(), "no-op plans must be elided");
        net.set_faults(FaultPlan::none().drop_probability(0.1));
        assert!(net.faults().is_some());
        assert!(net.fault_stats().is_clean());
    }

    #[test]
    fn all_live_membership_is_discarded() {
        use crate::membership::Membership;
        let pts = uniform_points(10, &mut trial_rng(77, 0));
        let mut net = RadioNet::new(&pts, 0.3);
        net.set_members(Membership::all_live(10));
        assert!(
            net.members().is_none(),
            "all-live memberships must be elided"
        );
        let mut m = Membership::all_live(10);
        m.leave(3);
        net.set_members(m);
        assert!(net.members().is_some());
        assert!(net.live(0) && !net.live(3));
    }

    #[test]
    fn membership_filters_delivery_and_reception() {
        use crate::membership::Membership;
        let pts = uniform_points(120, &mut trial_rng(78, 0));
        let r = 0.2;
        let mut m = Membership::all_live(120);
        for u in (0..120).step_by(3) {
            m.leave(u);
        }
        let mut net = RadioNet::with_config(
            &pts,
            r,
            EnergyConfig::extended(PathLoss::paper(), 0.001, 0.0),
        );
        net.cache_topology(r);
        net.set_members(m.clone());
        let mut plain = RadioNet::new(&pts, r);
        plain.cache_topology(r);
        let mut buf = Vec::new();
        for u in [1usize, 50, 119] {
            net.local_broadcast_into(u, r, "b", &mut buf);
            assert!(buf.iter().all(|&(v, _)| m.is_live(v)), "dead receiver");
            assert_eq!(buf.len(), net.live_degree(u, r));
            let full: Vec<_> = plain
                .local_broadcast(u, r, "b")
                .into_iter()
                .filter(|&(v, _)| m.is_live(v))
                .collect();
            assert_eq!(buf, full, "live sublist must keep the row's order");
        }
        // Silent broadcasts charge receptions for live neighbours only.
        let before = net.ledger().rx_count();
        net.local_broadcast_silent(1, r, "b");
        assert_eq!(
            net.ledger().rx_count() - before,
            net.live_degree(1, r) as u64
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn membership_and_faults_are_mutually_exclusive() {
        use crate::fault::FaultPlan;
        use crate::membership::Membership;
        let pts = uniform_points(6, &mut trial_rng(79, 0));
        let mut net = RadioNet::new(&pts, 0.3);
        net.set_faults(FaultPlan::none().drop_probability(0.1));
        let mut m = Membership::all_live(6);
        m.leave(0);
        net.set_members(m);
    }

    #[test]
    fn note_fault_counts_and_traces() {
        use crate::fault::FaultKind;
        use crate::trace::MetricsSink;
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut sink = MetricsSink::new();
        {
            let mut net = RadioNet::new(&pts, 1.0);
            net.set_sink(&mut sink);
            net.note_fault(FaultKind::Drop, "t", 0, Some(1));
            net.note_fault(FaultKind::Retry, "t", 0, Some(1));
            net.note_fault(FaultKind::Retry, "t", 0, None);
            net.note_fault(FaultKind::Timeout, "t", 1, None);
            let fs = net.fault_stats();
            assert_eq!((fs.drops, fs.retries, fs.timeouts), (1, 2, 1));
        }
        assert_eq!(sink.fault_drops(), 1);
        assert_eq!(sink.fault_retries(), 2);
        assert_eq!(sink.fault_timeouts(), 1);
    }

    #[test]
    fn charge_tx_keeps_destination_in_trace() {
        use crate::trace::{TraceEvent, TraceSink};
        #[derive(Default)]
        struct Last(Option<TraceEvent>);
        impl TraceSink for Last {
            fn record(&mut self, e: &TraceEvent) {
                self.0 = Some(e.clone());
            }
        }
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.3, 0.4)];
        let mut sink = Last::default();
        {
            let mut net = RadioNet::new(&pts, 1.0);
            net.set_sink(&mut sink);
            net.charge_tx("t", 0, Some(1), 0.5, 0.25);
            assert!((net.ledger().total_energy() - 0.25).abs() < 1e-15);
        }
        match sink.0 {
            Some(TraceEvent::Message { dst, power, .. }) => {
                assert_eq!(dst, Some(1));
                assert!((power - 0.5).abs() < 1e-15);
            }
            other => panic!("expected a message event, got {other:?}"),
        }
    }

    #[test]
    fn take_ledger_resets() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let mut net = RadioNet::new(&pts, 1.5);
        net.unicast(0, 1, "t");
        let l = net.take_ledger();
        assert_eq!(l.total_messages(), 1);
        assert_eq!(net.ledger().total_messages(), 0);
    }

    #[test]
    fn custom_loss_model_applies() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        let mut net = RadioNet::with_loss(&pts, 1.0, PathLoss::new(2.0, 1.0));
        net.unicast(0, 1, "t");
        assert!((net.ledger().total_energy() - 1.0).abs() < 1e-15); // 2·0.5¹
    }
}
