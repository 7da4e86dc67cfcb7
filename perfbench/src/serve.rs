//! `serve_mixed`: a wire server over a durable system, driven by a seeded
//! closed-loop mix of reads and writes from a few client connections.

use crate::report::{self, median, Histogram, Outcome, Rounds};
use crate::trace::{self, Tracer};
use crate::Args;
use qpe_htap::engine::{BackgroundCompaction, DurabilityOptions};
use qpe_htap::exec::{Row, WorkCounters};
use qpe_htap::tpch::TpchConfig;
use qpe_htap::{EngineKind, HtapSystem, PreparedStatement, Session, StatementOutcome, SyncPolicy};
use qpe_server::client::{Client, ExecOutcome};
use qpe_server::protocol::EnginePref;
use qpe_server::server::{Server, ServerConfig};
use qpe_sql::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.01;
/// Set-ups before the load, and as many again after it; `setup_s` is the
/// median of them all, so it reads the host over the whole run rather than
/// in the second the first ones take.
const SETUPS: usize = 9;
/// Each client writes only keys in its own range of this size, above every
/// generated key, so the table size stays steady and every write's
/// expected effect is known.
const PRIVATE_KEYS: i64 = 500;
const PRIVATE_BASE: i64 = 5_000_000;
/// Base keys compared over the wire and in-process before and after load.
const GATE_KEYS: usize = 8;
/// Ops per client and transport in the traced run's per-class comparison.
const PROBE_OPS: usize = 2_500;
/// Length of a round: latencies are kept per round of completion time.
const ROUND: Duration = Duration::from_secs(1);

const POINT_SQL: &str = "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = ?";
const SCAN_SQL: &str = "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
    GROUP BY c_nationkey ORDER BY c_nationkey";
const INSERT_SQL: &str = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
    c_acctbal, c_mktsegment) VALUES (?, ?, 7, '20-000-000-0000', ?, 'machinery')";
const UPDATE_SQL: &str = "UPDATE customer SET c_acctbal = ? WHERE c_custkey = ?";
const DELETE_SQL: &str = "DELETE FROM customer WHERE c_custkey = ?";
const COUNT_SQL: &str = "SELECT COUNT(*) FROM customer";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    TpPoint,
    ApPoint,
    DualPoint,
    ApScan,
    Dml,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::TpPoint,
        Class::ApPoint,
        Class::DualPoint,
        Class::ApScan,
        Class::Dml,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::TpPoint => "tp_point",
            Class::ApPoint => "ap_point",
            Class::DualPoint => "dual_point",
            Class::ApScan => "ap_scan",
            Class::Dml => "dml",
        }
    }

    fn wire_span(self) -> &'static str {
        match self {
            Class::TpPoint => "wire.tp_point",
            Class::ApPoint => "wire.ap_point",
            Class::DualPoint => "wire.dual_point",
            Class::ApScan => "wire.ap_scan",
            Class::Dml => "wire.dml",
        }
    }

    fn session_span(self) -> &'static str {
        match self {
            Class::TpPoint => "session.tp_point",
            Class::ApPoint => "session.ap_point",
            Class::DualPoint => "session.dual_point",
            Class::ApScan => "session.ap_scan",
            Class::Dml => "session.dml",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Point(Class, i64),
    Scan,
    Insert(i64, f64),
    Update(i64, f64),
    Delete(i64),
}

impl Op {
    fn class(&self) -> Class {
        match self {
            Op::Point(c, _) => *c,
            Op::Scan => Class::ApScan,
            _ => Class::Dml,
        }
    }
}

/// What a statement returned, in the shape both transports share.
enum Reply {
    Rows(Vec<Row>, WorkCounters),
    Affected(u64),
}

/// A client's way into the system: over the wire or in-process.
trait Conn {
    fn run(&mut self, op: &Op) -> Result<Reply, String>;
    /// The span a traced op of `class` is recorded under.
    fn span(&self, class: Class) -> &'static str;
    fn in_process(&self) -> bool;
}

struct Wire {
    client: Client,
    ids: [u32; 5],
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let mut ids = [0; 5];
        for (id, sql) in ids.iter_mut().zip(STATEMENTS) {
            *id = client.prepare(sql).map_err(|e| e.to_string())?.stmt_id;
        }
        Ok(Wire { client, ids })
    }
}

const STATEMENTS: [&str; 5] = [POINT_SQL, SCAN_SQL, INSERT_SQL, UPDATE_SQL, DELETE_SQL];

fn params(op: &Op) -> (usize, Vec<Value>) {
    match *op {
        Op::Point(_, k) => (0, vec![Value::Int(k)]),
        Op::Scan => (1, vec![]),
        Op::Insert(k, bal) => (
            2,
            vec![
                Value::Int(k),
                Value::Str(format!("pb{k}")),
                Value::Float(bal),
            ],
        ),
        Op::Update(k, bal) => (3, vec![Value::Float(bal), Value::Int(k)]),
        Op::Delete(k) => (4, vec![Value::Int(k)]),
    }
}

impl Conn for Wire {
    fn run(&mut self, op: &Op) -> Result<Reply, String> {
        let (stmt, params) = params(op);
        let pref = match op.class() {
            Class::TpPoint => EnginePref::Tp,
            Class::ApPoint | Class::ApScan => EnginePref::Ap,
            Class::DualPoint => EnginePref::Dual,
            Class::Dml => EnginePref::Default,
        };
        match self.client.execute_pref(self.ids[stmt], pref, &params) {
            Ok(ExecOutcome::Rows(q)) => Ok(Reply::Rows(q.rows, q.counters)),
            Ok(ExecOutcome::Dml(d)) => Ok(Reply::Affected(d.rows_affected)),
            Err(e) => Err(e.to_string()),
        }
    }

    fn span(&self, class: Class) -> &'static str {
        class.wire_span()
    }

    fn in_process(&self) -> bool {
        false
    }
}

struct InProcess {
    stmts: Vec<PreparedStatement>,
}

impl InProcess {
    fn new(sys: &Arc<HtapSystem>) -> Result<InProcess, String> {
        let session = Session::new(Arc::clone(sys));
        let stmts = STATEMENTS
            .iter()
            .map(|sql| session.prepare(sql).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(InProcess { stmts })
    }
}

impl Conn for InProcess {
    fn run(&mut self, op: &Op) -> Result<Reply, String> {
        let (stmt, params) = params(op);
        let stmt = &self.stmts[stmt];
        let outcome = match op.class() {
            Class::TpPoint => stmt.execute_on(EngineKind::Tp, &params),
            Class::ApPoint | Class::ApScan => stmt.execute_on(EngineKind::Ap, &params),
            Class::DualPoint | Class::Dml => stmt.execute(&params),
        }
        .map_err(|e| e.to_string())?;
        Ok(match outcome {
            // A dual run reports the TP side, as the wire does.
            StatementOutcome::Query(q) => Reply::Rows(q.tp.rows, q.tp.counters),
            StatementOutcome::PinnedQuery(p) => Reply::Rows(p.run.rows, p.run.counters),
            StatementOutcome::Dml(d) => Reply::Affected(d.result.rows_affected),
        })
    }

    fn span(&self, class: Class) -> &'static str {
        class.session_span()
    }

    fn in_process(&self) -> bool {
        true
    }
}

/// What the load may see, fixed before it starts: every generated
/// customer's row and the per-nation counts of the generated rows.
struct Expected {
    keys: Vec<i64>,
    rows: HashMap<i64, Row>,
    nation_counts: Vec<(Value, i64)>,
    base_rows: i64,
    /// Upper bound on rows the private key ranges can add.
    private_max: i64,
}

impl Expected {
    fn load(sys: &Arc<HtapSystem>, writers: i64) -> Expected {
        let session = Session::new(Arc::clone(sys));
        let all = session
            .execute_sql("SELECT c_custkey, c_name, c_acctbal FROM customer")
            .expect("customer scan");
        let mut keys = Vec::new();
        let mut rows = HashMap::new();
        for r in all.rows().expect("rows") {
            let Value::Int(k) = r[0] else {
                panic!("integer key")
            };
            keys.push(k);
            rows.insert(k, r[1..].to_vec());
        }
        keys.sort_unstable();
        let scan = session.execute_sql(SCAN_SQL).expect("nation scan");
        let nation_counts = scan
            .rows()
            .expect("rows")
            .iter()
            .map(|r| (r[0].clone(), int(&r[1])))
            .collect();
        Expected {
            base_rows: keys.len() as i64,
            keys,
            rows,
            nation_counts,
            private_max: writers * PRIVATE_KEYS,
        }
    }

    /// Checks one reply against what the op may legally return.
    fn check(&self, op: &Op, reply: &Reply) -> bool {
        match (op, reply) {
            (Op::Point(_, k), Reply::Rows(rows, _)) => {
                rows.len() == 1 && Some(&rows[0]) == self.rows.get(k)
            }
            (Op::Scan, Reply::Rows(rows, _)) => {
                let total: i64 = rows.iter().map(|r| int(&r[1])).sum();
                rows.len() == self.nation_counts.len()
                    && rows
                        .iter()
                        .zip(&self.nation_counts)
                        .all(|(r, (n, c))| r[0] == *n && int(&r[1]) >= *c)
                    && total <= self.base_rows + self.private_max
            }
            (Op::Insert(..) | Op::Update(..) | Op::Delete(_), Reply::Affected(n)) => *n == 1,
            _ => false,
        }
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => -1,
    }
}

/// One writer's private rows: key -> balance, for acknowledged writes only.
#[derive(Default)]
struct Model {
    rows: HashMap<i64, f64>,
    /// Keys whose write failed: their state is unknown.
    unknown: Vec<i64>,
}

impl Model {
    /// An acknowledged write changes the row; a failed one leaves the key's
    /// state unknown.
    fn apply(&mut self, op: &Op, acked: bool) {
        match (*op, acked) {
            (Op::Insert(k, bal) | Op::Update(k, bal), true) => {
                self.rows.insert(k, bal);
            }
            (Op::Delete(k), true) => {
                self.rows.remove(&k);
            }
            (Op::Insert(k, _) | Op::Update(k, _) | Op::Delete(k), false) => {
                self.rows.remove(&k);
                self.unknown.push(k);
            }
            _ => {}
        }
    }
}

/// Which ops a client sends.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// The served mix, with the shares of the `mixed` phase of the
    /// repository's `loadgen` harness: 90% TP-pinned PK lookups, 8%
    /// insert/update/delete, 2% AP group-by scans.
    Served,
    /// Every class in equal shares, AP-pinned and dual-run lookups included:
    /// the traced run's per-class wire against in-process comparison.
    Probe,
}

/// One client: its connection, its seeded op stream and the model of the
/// writes it had acknowledged in its private key range.
struct LoadClient {
    conn: Box<dyn Conn + Send>,
    rng: StdRng,
    base: i64,
    model: Model,
}

impl LoadClient {
    fn new(conn: Box<dyn Conn + Send>, seed: u64, client: usize) -> LoadClient {
        LoadClient {
            conn,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(client as u64)),
            base: PRIVATE_BASE + client as i64 * PRIVATE_KEYS * 2,
            model: Model::default(),
        }
    }

    fn next_op(&mut self, expected: &Expected, mix: Mix) -> Op {
        let class = match mix {
            Mix::Served => match self.rng.gen_range(0..100) {
                0..=89 => Class::TpPoint,
                90..=97 => Class::Dml,
                _ => Class::ApScan,
            },
            Mix::Probe => Class::ALL[self.rng.gen_range(0..Class::ALL.len())],
        };
        let key = expected.keys[self.rng.gen_range(0..expected.keys.len())];
        match class {
            Class::TpPoint | Class::ApPoint | Class::DualPoint => Op::Point(class, key),
            Class::ApScan => Op::Scan,
            Class::Dml => {
                let k = self.base + self.rng.gen_range(0..PRIVATE_KEYS);
                let bal = self.rng.gen_range(0..1_000_000) as f64 / 100.0;
                match self.model.rows.contains_key(&k) {
                    false => Op::Insert(k, bal),
                    true if self.rng.gen_bool(0.5) => Op::Update(k, bal),
                    true => Op::Delete(k),
                }
            }
        }
    }
}

/// One client's share of a phase.
struct ClientRun {
    /// Latencies by round of completion time, every class.
    rounds: Vec<Histogram>,
    /// Latencies by class (in the order of `Class::ALL`).
    classes: [Histogram; 5],
    /// Every op's latency, kept in traced phases only.
    request_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    errors: Vec<String>,
    tracer: Tracer,
    delta_peak: usize,
}

enum Budget {
    Time(Duration),
    Ops(usize),
}

/// What every client of a phase shares.
struct Load<'a> {
    sys: &'a HtapSystem,
    expected: &'a Expected,
    mix: Mix,
    traced: bool,
    epoch: Instant,
}

/// One thread's closed loop: send, wait for the reply, check it, repeat,
/// taking its clients in turn. A traced loop is one `client` root span
/// whose children are the calls into the system; what they leave uncovered
/// is the loop's own work.
fn client_loop(
    clients: &mut [LoadClient],
    load: &Load,
    budget: &Budget,
    sample_freshness: bool,
) -> ClientRun {
    let mut run = ClientRun {
        rounds: Vec::new(),
        classes: Default::default(),
        request_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        errors: Vec::new(),
        tracer: Tracer::new(load.epoch),
        delta_peak: 0,
    };
    let root = load.traced.then(|| run.tracer.begin("client", 0, None));
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        match budget {
            Budget::Time(limit) if start.elapsed() >= *limit => break,
            Budget::Ops(n) if i >= *n => break,
            _ => {}
        }
        let d = &mut clients[i % clients.len()];
        let op = d.next_op(load.expected, load.mix);
        let class = op.class();
        let req = i as u64;
        let in_process = d.conn.in_process();
        if load.traced && in_process && matches!(class, Class::ApPoint | Class::ApScan) {
            run.tracer.leaf("storage.pin_snapshot", req, root, || {
                drop(load.sys.pin_snapshot())
            });
        }
        let t = Instant::now();
        let conn = &mut d.conn;
        let reply = if load.traced {
            let span = conn.span(class);
            run.tracer.leaf(span, req, root, || conn.run(&op))
        } else {
            conn.run(&op)
        };
        let done = start.elapsed();
        let ok = match &reply {
            Ok(r) => {
                let ok = load.expected.check(&op, r);
                run.wrong += u64::from(!ok);
                ok
            }
            Err(e) => {
                if run.errors.len() < 4 {
                    run.errors.push(e.clone());
                }
                false
            }
        };
        d.model.apply(&op, ok);
        run.attempted += 1;
        run.failed += u64::from(!ok);
        let latency_ns = (done - (t - start)).as_nanos() as u64;
        let round = (done.as_nanos() / ROUND.as_nanos()) as usize;
        if run.rounds.len() <= round {
            run.rounds.resize(round + 1, Histogram::default());
        }
        run.rounds[round].record(latency_ns);
        run.classes[class as usize].record(latency_ns);
        if load.traced {
            run.request_ns.push(latency_ns);
        }
        if sample_freshness && i.is_multiple_of(64) {
            let delta = load.sys.freshness("customer").map_or(0, |f| f.delta_rows);
            run.delta_peak = run.delta_peak.max(delta);
        }
        i += 1;
    }
    if let Some(root) = root {
        run.tracer.end(root);
    }
    run
}

struct Phase {
    runs: Vec<ClientRun>,
    elapsed_ns: u64,
}

/// Runs each `per_thread` consecutive clients on a thread of their own,
/// under `budget(thread)`.
fn phase(
    load_clients: &mut [LoadClient],
    per_thread: usize,
    load: &Load,
    budget: impl Fn(usize) -> Budget,
) -> Phase {
    let start = Instant::now();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = load_clients
            .chunks_mut(per_thread)
            .enumerate()
            .map(|(c, d)| {
                let budget = budget(c);
                s.spawn(move || client_loop(d, load, &budget, c == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Phase {
        runs,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    }
}

/// A running server over a fresh durable directory, plus prepared wire
/// clients: one set-up.
struct Stack {
    dir: PathBuf,
    sys: Arc<HtapSystem>,
    server: Server,
    wires: Vec<Wire>,
}

impl Stack {
    fn start(dir: PathBuf, clients: usize) -> Stack {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            sync: SyncPolicy::default(),
            background: Some(BackgroundCompaction::default()),
            ..DurabilityOptions::default()
        };
        let sys = Arc::new(
            HtapSystem::open_with(&dir, &TpchConfig::with_scale(SCALE), opts)
                .expect("durable system opens"),
        );
        let server = Server::start(Arc::clone(&sys), "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let wires = (0..clients)
            .map(|_| Wire::connect(server.addr()).expect("client connects"))
            .collect();
        Stack {
            dir,
            sys,
            server,
            wires,
        }
    }

    /// Set-up number `i` in a fresh directory of its own, with its time.
    fn timed(i: usize, clients: usize) -> (Stack, f64) {
        let dir = PathBuf::from(crate::RUN_DIR).join(format!("serve-{}-{i}", std::process::id()));
        let t = Instant::now();
        let stack = Stack::start(dir, clients);
        (stack, t.elapsed().as_secs_f64())
    }

    /// Shuts the server down and drops the system without a checkpoint,
    /// leaving the directory for recovery.
    fn stop(mut self) -> PathBuf {
        self.wires.clear();
        self.server.shutdown();
        self.dir.clone()
    }
}

/// Wire rows and WorkCounters must be byte-identical to an in-process
/// session on the same system, for every engine preference.
fn equivalence_gate(stack: &Stack, expected: &Expected, seed: u64) -> bool {
    let (Ok(mut wire), Ok(mut local)) = (
        Wire::connect(stack.server.addr()),
        InProcess::new(&stack.sys),
    ) else {
        return false;
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut ops: Vec<Op> = (0..GATE_KEYS)
        .flat_map(|_| {
            let k = expected.keys[rng.gen_range(0..expected.keys.len())];
            [Class::TpPoint, Class::ApPoint, Class::DualPoint].map(|c| Op::Point(c, k))
        })
        .collect();
    ops.push(Op::Scan);
    let same = ops.iter().all(|op| match (wire.run(op), local.run(op)) {
        (Ok(Reply::Rows(wr, wc)), Ok(Reply::Rows(lr, lc))) => wr == lr && wc == lc,
        _ => false,
    });
    same && wire.client.goodbye().is_ok()
}

/// Reopens the directory and checks that every acknowledged private write,
/// and nothing else, is visible. Returns the recovery time.
fn verify_durable(
    dir: &PathBuf,
    expected: &Expected,
    writers: &[(i64, Model)],
    out: &mut Outcome,
) -> f64 {
    let cfg = TpchConfig::with_scale(SCALE);
    let sys = match HtapSystem::open_with(dir, &cfg, DurabilityOptions::default()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            out.check(false, format!("reopen failed: {e}"));
            return 0.0;
        }
    };
    let recovery_s = sys
        .recovery_report()
        .map_or(0.0, |r| r.elapsed.as_secs_f64());
    let session = Session::new(Arc::clone(&sys));
    let point = session.prepare(POINT_SQL).expect("point lookup prepares");
    let mut ok = true;
    let mut live = 0i64;
    for (base, model) in writers {
        for k in (*base..base + PRIVATE_KEYS).filter(|k| !model.unknown.contains(k)) {
            let want: Vec<Row> = model
                .rows
                .get(&k)
                .map(|bal| vec![vec![Value::Str(format!("pb{k}")), Value::Float(*bal)]])
                .unwrap_or_default();
            live += want.len() as i64;
            let got = point.execute_on(EngineKind::Tp, &[Value::Int(k)]);
            ok &= matches!(got.as_ref().ok().and_then(|o| o.rows()), Some(rows) if rows == want.as_slice());
        }
    }
    // A failed write leaves its key unknown, and then the total too.
    if writers.iter().all(|(_, m)| m.unknown.is_empty()) {
        let count = session
            .execute_sql(COUNT_SQL)
            .ok()
            .and_then(|o| o.rows().map(|r| int(&r[0][0])));
        ok &= count == Some(expected.base_rows + live);
    }
    out.check(
        ok,
        "after reopen, exactly the acknowledged writes are visible",
    );
    recovery_s
}

pub fn serve_mixed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);

    let mut setup = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for i in 0..SETUPS {
        if let Some(old) = stack.take() {
            let _ = std::fs::remove_dir_all(Stack::stop(old));
        }
        let (s, t) = Stack::timed(i, clients);
        stack = Some(s);
        setup.push(t);
    }
    let mut stack = stack.expect("at least one set-up");
    let sys = Arc::clone(&stack.sys);
    // The traced run's in-process writers use key ranges of their own.
    let writers = if args.trace { 2 * clients } else { clients };
    let expected = Expected::load(&sys, writers as i64);
    out.note(format!(
        "context: durable system at TPC-H scale {SCALE} ({} customer rows), \
         WAL sync GroupCommit{{interval: 0}}, background compaction on (min delta rows {}), \
         {clients} clients, closed loop",
        expected.base_rows,
        BackgroundCompaction::default().min_delta_rows
    ));
    out.check(
        equivalence_gate(&stack, &expected, args.seed),
        "wire == in-process before load",
    );

    let wal0 = sys.wal_stats().expect("durable system has a WAL");
    let cache0 = sys.plan_cache_stats();
    let epoch = Instant::now();
    let load = |mix, traced| Load {
        sys: &sys,
        expected: &expected,
        mix,
        traced,
        epoch,
    };
    let mut load_clients: Vec<LoadClient> = std::mem::take(&mut stack.wires)
        .into_iter()
        .enumerate()
        .map(|(c, w)| LoadClient::new(Box::new(w), args.seed, c))
        .collect();

    // Untimed warm-up, then the measured window.
    let warm = Duration::from_secs_f64((args.seconds / 10.0).min(1.0));
    tally(
        &mut out,
        &phase(&mut load_clients, 1, &load(Mix::Served, false), |_| {
            Budget::Time(warm)
        }),
    );
    let delta_peak = if !args.trace {
        let measure = Duration::from_secs_f64(args.seconds);
        let m = phase(&mut load_clients, 1, &load(Mix::Served, false), |_| {
            Budget::Time(measure)
        });
        tally(&mut out, &m);
        end_to_end(&mut out, &m, measure);
        delta_peak(&[m])
    } else {
        // Tracing overhead: blocks of the served mix alternate untraced and
        // traced over the wire, each traced block repeating the op counts of
        // the untraced one before it, so a drift in the host's speed hits
        // both alike.
        let block = Duration::from_secs_f64(args.seconds / 3.0 / trace::BLOCKS as f64);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..trace::BLOCKS {
            let u = phase(&mut load_clients, 1, &load(Mix::Served, false), |_| {
                Budget::Time(block)
            });
            let counts: Vec<usize> = u.runs.iter().map(|r| r.attempted as usize).collect();
            let t = phase(&mut load_clients, 1, &load(Mix::Served, true), |c| {
                Budget::Ops(counts[c])
            });
            tally(&mut out, &u);
            tally(&mut out, &t);
            untraced.push(u);
            traced.push(t);
        }
        // Per-class comparison: each thread alternates its wire client with
        // an in-process client on fresh key ranges, every class in equal
        // shares, so both transports run under the same conditions.
        let mut paired: Vec<LoadClient> = load_clients
            .into_iter()
            .enumerate()
            .flat_map(|(c, wire)| {
                let conn = InProcess::new(&sys).expect("in-process statements prepare");
                [
                    wire,
                    LoadClient::new(Box::new(conn), args.seed, clients + c),
                ]
            })
            .collect();
        let probe = phase(&mut paired, 2, &load(Mix::Probe, true), |_| {
            Budget::Ops(2 * PROBE_OPS)
        });
        tally(&mut out, &probe);
        traced_layers(&mut out, &untraced, &traced, &probe);
        load_clients = paired;
        delta_peak(&untraced).max(delta_peak(&traced))
    };

    // Post-load gates, then the durability check on a reopened directory.
    out.check(
        equivalence_gate(&stack, &expected, args.seed + 1),
        "wire == in-process after load",
    );
    let stats = Client::connect(stack.server.addr()).and_then(|mut c| {
        let s = c.stats()?;
        c.goodbye()?;
        Ok(s)
    });
    match &stats {
        Ok(s) => {
            out.check(s.protocol_errors == 0, "zero protocol errors");
            out.check(!s.degraded, "system not degraded at end of run");
        }
        Err(e) => out.check(false, format!("stats frame: {e}")),
    }
    let health = sys.health();
    out.check(!health.degraded, "system health not degraded");
    let wal = sys.wal_stats().expect("durable system has a WAL");
    let cache = sys.plan_cache_stats();
    let private: Vec<(i64, Model)> = load_clients
        .into_iter()
        .map(|d| (d.base, d.model))
        .collect();
    drop(sys);
    let dir = stack.stop();
    let recovery_s = verify_durable(&dir, &expected, &private, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    for i in SETUPS..2 * SETUPS {
        let (s, t) = Stack::timed(i, clients);
        setup.push(t);
        let _ = std::fs::remove_dir_all(s.stop());
    }
    out.e2e("setup_s", median(&setup), "s");

    let fsyncs = (wal.fsyncs - wal0.fsyncs).max(1);
    let records = wal.records - wal0.records;
    out.note(format!(
        "wal: {records} records in {fsyncs} fsyncs; recovery {recovery_s:.3} s"
    ));
    if args.trace {
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        out.layer(
            "storage.wal_records_per_fsync",
            records as f64 / fsyncs as f64,
            "ratio",
        );
        out.layer("storage.delta_rows_peak", delta_peak as f64, "count");
        out.layer(
            "storage.compactor_failures",
            health.compactor_failures as f64,
            "count",
        );
        out.layer("storage.recovery_s", recovery_s, "s");
        out.layer(
            "session.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        if let Ok(s) = &stats {
            let n = s.statements_executed.max(1) as f64;
            out.layer("server.bytes_in_per_op", s.bytes_read as f64 / n, "bytes");
            out.layer(
                "server.bytes_out_per_op",
                s.bytes_written as f64 / n,
                "bytes",
            );
            out.layer(
                "server.statements_rejected",
                s.statements_rejected as f64,
                "count",
            );
            out.layer("server.protocol_errors", s.protocol_errors as f64, "count");
        }
    }
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}

fn tally(out: &mut Outcome, p: &Phase) {
    for r in &p.runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.wrong += r.wrong;
        for e in &r.errors {
            out.note(format!("op error: {e}"));
        }
    }
}

fn end_to_end(out: &mut Outcome, m: &Phase, window: Duration) {
    // Every round of a second runs the same mix, so throughput and latency
    // are read from the fast quartile of the rounds: a spell of slow fsyncs
    // or of other work on the host moves the rounds it hits, not the figure.
    // Ops that complete after the window are left out of the rounds.
    let n_rounds = (window.as_secs() as usize).max(1);
    let mut rounds = vec![Histogram::default(); n_rounds];
    let mut classes: [Histogram; 5] = Default::default();
    for run in &m.runs {
        for (all, h) in rounds.iter_mut().zip(&run.rounds) {
            all.merge(h);
        }
        for (all, h) in classes.iter_mut().zip(&run.classes) {
            all.merge(h);
        }
    }
    let mut r = Rounds::default();
    for h in &rounds {
        r.push(h, ROUND.as_nanos() as u64);
    }
    out.e2e(
        "throughput_ops_s",
        report::fast_quartile(&r.throughput, true),
        "1/s",
    );
    out.e2e(
        "latency_p50_us",
        report::fast_quartile(&r.p50_us, false),
        "us",
    );
    let pooled = |pick: &dyn Fn(Class) -> bool| {
        let mut h = Histogram::default();
        for (c, ch) in Class::ALL.iter().zip(&classes) {
            if pick(*c) {
                h.merge(ch);
            }
        }
        h
    };
    let all = pooled(&|_| true);
    out.note(format!(
        "{n_rounds} rounds; median round: {:.1} 1/s, p50 {:.1} us",
        median(&r.throughput),
        median(&r.p50_us)
    ));
    out.note(format!(
        "latency_p95_us {:.1} us (fast quartile of rounds), latency_p99_us {:.1} us (pooled, n={})",
        report::fast_quartile(&r.p95_us, false),
        all.percentile_us(99.0),
        all.len()
    ));
    for (label, h) in [
        ("read", pooled(&|c| c != Class::Dml)),
        ("write", pooled(&|c| c == Class::Dml)),
    ] {
        out.note(format!(
            "{label}_latency_p50_us {:.1} us, {label}_latency_p99_us {:.1} us (n={})",
            h.percentile_us(50.0),
            h.percentile_us(99.0),
            h.len()
        ));
    }
    for (class, h) in Class::ALL.iter().zip(&classes) {
        if h.len() > 0 {
            out.note(format!(
                "  {:<10} n={:<7} p50 {:.1} us",
                class.name(),
                h.len(),
                h.percentile_us(50.0)
            ));
        }
    }
    out.note(format!("round throughputs {:.0?} 1/s", r.throughput));
    out.note(format!("round p50s {:.1?} us", r.p50_us));
}

/// The largest delta-store size client 0 saw in `phases`.
fn delta_peak(phases: &[Phase]) -> usize {
    phases
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.delta_peak)
        .max()
        .unwrap_or(0)
}

/// Ops per second over a set of phases.
fn throughput(phases: &[Phase]) -> f64 {
    let ops: u64 = phases
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.attempted)
        .sum();
    let ns: u64 = phases.iter().map(|p| p.elapsed_ns).sum();
    ops as f64 / (ns.max(1) as f64 / 1e9)
}

/// Per-class wire and in-process medians from the class-balanced probe,
/// the wire overhead with its base, the tracing overhead on the served mix
/// and the reconciliation of every traced client loop.
fn traced_layers(out: &mut Outcome, untraced: &[Phase], traced: &[Phase], probe: &Phase) {
    let spans = trace::merge(
        traced
            .iter()
            .chain(std::iter::once(probe))
            .flat_map(|p| &p.runs)
            .map(|r| &r.tracer),
    );
    let layers = trace::by_layer(&trace::merge(probe.runs.iter().map(|r| &r.tracer)));
    let med = |name: &str| layers.get(name).map_or(0.0, |l| l.median_us());
    for class in Class::ALL {
        let base = med(class.session_span());
        let wire_us = med(class.wire_span());
        out.layer(
            &format!("session.prepared_exec_us.{}", class.name()),
            base,
            "us",
        );
        out.layer(
            &format!("server.wire_overhead_us.{}", class.name()),
            wire_us - base,
            "us",
        );
        out.note(format!(
            "  {:<10} wire {wire_us:.1} us = in-process {base:.1} us + overhead {:.1} us (n={})",
            class.name(),
            wire_us - base,
            layers.get(class.wire_span()).map_or(0, |l| l.dur_ns.len())
        ));
    }
    let tp_ratio = med(Class::TpPoint.wire_span()) / med(Class::TpPoint.session_span()).max(1e-9);
    out.layer("server.wire_to_inprocess_ratio.tp_point", tp_ratio, "ratio");
    out.layer("storage.pin_snapshot_us", med("storage.pin_snapshot"), "us");

    let request_ns: Vec<u64> = traced
        .iter()
        .flat_map(|p| &p.runs)
        .flat_map(|r| r.request_ns.iter().copied())
        .collect();
    trace::summary(
        &spans,
        &request_ns,
        throughput(untraced),
        throughput(traced),
        out,
    );
    let path = std::path::Path::new(crate::RUN_DIR).join("spans-serve_mixed.tsv");
    if let Err(e) = trace::write_tsv(&path, &spans) {
        out.note(format!("span log not written: {e}"));
    }
}
