//! The `explain_fresh` workload: SQL in, dual run plus explanation out,
//! from one closed-loop client.

use crate::report::{self, median, Histogram, Outcome, Rounds};
use crate::trace::{self, Tracer};
use crate::Args;
use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_core::{ExplainReport, Explainer, PipelineConfig};
use qpe_htap::engine::{EngineKind, HtapSystem, QueryOutcome, StatementOutcome};
use qpe_htap::exec::{self, WorkCounters};
use qpe_htap::plan::PlanNode;
use qpe_htap::tpch::TpchConfig;
use qpe_llm::generator::ExplanationOutput;
use qpe_llm::grader::GradeStats;
use qpe_llm::prompt::{Prompt, Question};
use qpe_llm::SimulatedLlm;
use qpe_treecnn::train::TrainerConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The paper experiments' pipeline: TPC-H scale 0.01, 120 training
/// queries, a KB of 20 and retrieval depth K = 2.
const SCALE: f64 = 0.01;
const N_TRAIN: usize = 120;
const KB_SIZE: usize = 20;
const TOP_K: usize = 2;
/// Held-out queries of one `explain_fresh` round, one to two seconds of
/// work. Every round sends the same queries on an empty plan cache.
const PASS: usize = 96;
/// Held-out queries of the traced `explain_fresh` run; more than it
/// consumes, so every traced request is a query not seen before in the run.
const STREAM: usize = 5_000;
/// Seed of the reference generator run the held-out queries are matched to.
const REFERENCE_SEED: u64 = 424_242;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        tpch: TpchConfig::with_scale(SCALE),
        workload: WorkloadConfig::default(),
        n_train: N_TRAIN,
        kb_size: KB_SIZE,
        top_k: TOP_K,
        trainer: TrainerConfig::default(),
        prompt: Default::default(),
    }
}

/// A query split into its template and its numbers: the text with every
/// number replaced by `#` and every quoted string longer than one letter by
/// `$`, plus the numbers in order. Single-letter strings (order statuses,
/// whose row counts differ 20-fold) stay in the template.
fn template(sql: &str) -> (String, Vec<f64>) {
    let (mut text, mut numbers) = (String::with_capacity(sql.len()), Vec::new());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            let mut lit = String::new();
            for c in chars.by_ref() {
                if c == '\'' {
                    break;
                }
                lit.push(c);
            }
            if lit.chars().count() <= 1 {
                text.push_str(&format!("'{lit}'"));
            } else {
                text.push('$');
            }
        } else if c.is_ascii_digit() {
            let mut num = String::from(c);
            while let Some(d) = chars.next_if(|d| d.is_ascii_digit() || *d == '.') {
                num.push(d);
            }
            numbers.push(num.parse().unwrap_or(0.0));
            text.push('#');
        } else {
            text.push(c);
        }
    }
    (text, numbers)
}

/// How far apart two queries of one template are: the summed distance of
/// their numbers on a log scale, so an OFFSET of 2000 against 2100 counts
/// as close as one of 20 against 21.
fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.abs().ln_1p() - y.abs().ln_1p()).abs())
        .sum()
}

/// The generator's top-N sort keys that are not unique, each with a column
/// that makes the order total. Rows tied on the sort key are equally right
/// at the LIMIT/OFFSET boundary; the two engines may keep different ones,
/// and the dual run's agreement check compares row multisets, so such a
/// request would fail with an engine mismatch. With the extra key a top-N
/// query has one answer, which the check can hold both engines to. (On the
/// lineitem query, rows that still tie agree in every selected column.)
const TIE_BREAKS: [(&str, &str); 3] = [
    (
        "ORDER BY o_totalprice DESC",
        "ORDER BY o_totalprice DESC, o_orderkey",
    ),
    (
        "ORDER BY c_acctbal DESC",
        "ORDER BY c_acctbal DESC, c_custkey",
    ),
    (
        "ORDER BY l_extendedprice DESC",
        "ORDER BY l_extendedprice DESC, l_orderkey",
    ),
];

fn total_order(sql: String) -> String {
    match TIE_BREAKS.iter().find(|(key, _)| sql.contains(key)) {
        Some((key, total)) => sql.replace(key, total),
        None => sql,
    }
}

/// Candidates drawn per held-out query.
const CANDIDATES: usize = 8;

/// `n` held-out queries (joins plus 35% top-N) from the generator seeded by
/// `seed`, matched one by one to a reference generator run: each reference
/// query gets an unused candidate of the same template whose numbers are
/// nearest to its own. Every seed thus sends the
/// same mix of templates, in the generator's own proportions, with its own
/// literals; a run's figures then vary with the literals, not with how many
/// expensive templates a run happened to draw. Neither generator uses the
/// training workload's seed. Top-N queries get a total order (see
/// [`TIE_BREAKS`]). Also returns how many queries are off the reference:
/// templates the candidates ran out of, replaced by another candidate.
fn held_out(seed: u64, n: usize) -> (Vec<String>, usize) {
    let reference = WorkloadGenerator::new(WorkloadConfig {
        seed: REFERENCE_SEED,
        ..WorkloadConfig::default()
    })
    .generate(n);
    let mut candidates: HashMap<String, Vec<(Vec<f64>, String)>> = HashMap::new();
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        seed: 1_000_000 + seed.wrapping_mul(8).wrapping_add(1),
        ..WorkloadConfig::default()
    });
    for q in gen.generate(CANDIDATES * n.max(2_000)) {
        let (text, numbers) = template(&q);
        candidates.entry(text).or_default().push((numbers, q));
    }
    let mut off = 0;
    let queries = reference
        .iter()
        .map(|r| {
            let (text, numbers) = template(r);
            let group = candidates.get_mut(&text).filter(|g| !g.is_empty());
            let Some(group) = group else {
                off += 1;
                return None;
            };
            let nearest = (0..group.len())
                .min_by(|&i, &j| {
                    distance(&group[i].0, &numbers).total_cmp(&distance(&group[j].0, &numbers))
                })
                .expect("group is not empty");
            Some(group.swap_remove(nearest).1)
        })
        .collect::<Vec<_>>();
    // A template the candidates ran out of: take any unused candidate.
    let mut spare: Vec<String> = candidates.into_values().flatten().map(|(_, q)| q).collect();
    spare.sort();
    let queries = queries
        .into_iter()
        .map(|q| q.unwrap_or_else(|| spare.pop().expect("more candidates than queries")))
        .map(total_order)
        .collect();
    (queries, off)
}

/// The per-request output checks: exactly K retrieved ids, speedup >= 1,
/// and (when the outcome is known) the report's winner matches it.
fn report_ok(r: &ExplainReport, outcome: Option<&QueryOutcome>) -> bool {
    r.retrieved_ids.len() == TOP_K
        && r.speedup >= 1.0
        && outcome.is_none_or(|o| {
            r.winner == o.winner()
                && r.tp_latency_ns == o.tp.latency_ns
                && r.ap_latency_ns == o.ap.latency_ns
        })
}

/// Builds the explainer `SETUPS` times, keeping the last; returns it with
/// the median build time.
fn set_up() -> (Explainer, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // free the previous copy before building the next
        let t = Instant::now();
        last = Some(Explainer::build(pipeline_config()).expect("pipeline builds"));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Untimed warm-up: lazy set-up and caches settle before measuring.
fn warm_up(seconds: f64, mut f: impl FnMut(usize)) -> usize {
    let until = Duration::from_secs_f64((seconds / 10.0).min(1.0));
    let t = Instant::now();
    let mut i = 0;
    while t.elapsed() < until {
        f(i);
        i += 1;
    }
    i
}

/// Closed loop for `seconds`: runs `f(i)` back to back, returning the
/// number of requests and the time they took.
fn closed_loop(seconds: f64, mut f: impl FnMut(usize)) -> (usize, u64) {
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window {
        f(i);
        i += 1;
    }
    (i, start.elapsed().as_nanos() as u64)
}

/// Closed loop in rounds of the same `round` requests, `f(0..round)`, until
/// `seconds` have passed, finishing the round under way. `reset()` runs
/// untimed before every round, so every round does the same work. Returns
/// the per-round figures and the latencies of every request.
fn closed_rounds(
    seconds: f64,
    round: usize,
    reset: impl Fn(),
    mut f: impl FnMut(usize),
) -> (Rounds, Histogram) {
    let window = Duration::from_secs_f64(seconds);
    let (mut rounds, mut all) = (Rounds::default(), Histogram::default());
    let mut measured = Duration::ZERO;
    while measured < window {
        reset();
        let mut lats = Histogram::default();
        let start = Instant::now();
        for i in 0..round {
            let t = Instant::now();
            f(i);
            lats.record(t.elapsed().as_nanos() as u64);
        }
        let elapsed = start.elapsed();
        measured += elapsed;
        all.merge(&lats);
        rounds.push(&lats, elapsed.as_nanos() as u64);
    }
    (rounds, all)
}

/// Reports the end-to-end metrics of a run measured in rounds.
fn end_to_end(out: &mut Outcome, r: &Rounds, lats: &Histogram, setup_s: f64) {
    out.e2e("setup_s", setup_s, "s");
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
    out.note(format!(
        "latency_p95_us {:.1} us (fast quartile of rounds), latency_p99_us {:.1} us (pooled, n={})",
        report::fast_quartile(&r.p95_us, false),
        lats.percentile_us(99.0),
        lats.len()
    ));
    out.note(format!(
        "{} rounds; median round: {:.1} 1/s, p50 {:.1} us",
        r.throughput.len(),
        median(&r.throughput),
        median(&r.p50_us)
    ));
    out.note(format!("round throughputs {:.1?} 1/s", r.throughput));
    out.note(format!("round p50s {:.1?} us", r.p50_us));
}

/// The traced run's schedule: `trace::BLOCKS` blocks of untraced requests,
/// each followed by the same requests traced, so a drift in the host's
/// speed hits both alike. `untraced(i)` serves request `i`; `traced(range)`
/// replays a block's requests and is preceded by `reset()`, as is every
/// untraced block. Returns the untraced throughput.
fn alternate(
    first: usize,
    seconds: f64,
    out: &mut Outcome,
    reset: impl Fn(),
    mut untraced: impl FnMut(usize, &mut Outcome),
    mut traced: impl FnMut(std::ops::Range<usize>, &mut Outcome),
) -> f64 {
    let block = seconds / 3.0 / trace::BLOCKS as f64;
    let (mut ops, mut ns) = (0usize, 0u64);
    let mut next = first;
    for _ in 0..trace::BLOCKS {
        reset();
        let (n, elapsed_ns) = closed_loop(block, |i| untraced(next + i, out));
        ops += n;
        ns += elapsed_ns;
        reset();
        traced(next..next + n, out);
        next += n;
    }
    ops as f64 / (ns.max(1) as f64 / 1e9)
}

/// Expert grades of explanations and their modeled LLM response times,
/// collected outside the timed region.
#[derive(Default)]
struct Grades {
    stats: GradeStats,
    sim_ms: Vec<f64>,
}

impl Grades {
    fn record(&mut self, ex: &Explainer, o: &QueryOutcome, r: &ExplainReport) {
        self.sim_ms
            .push((r.timing.llm_think_ns + r.timing.llm_generation_ns) as f64 / 1e6);
        self.stats.record(ex.grade(o, &r.output));
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.stats.total();
        let accuracy = self.stats.accuracy() * 100.0;
        let wrong = self.stats.wrong as f64 / n.max(1) as f64 * 100.0;
        let sim = self.sim_ms.iter().sum::<f64>() / self.sim_ms.len().max(1) as f64;
        out.note(format!("explain_accuracy_pct {accuracy:.2} % (n={n})"));
        out.note(format!("explain_wrong_pct {wrong:.2} % (n={n})"));
        out.note(format!(
            "sim_llm_response_ms {sim:.1} ms (modeled, mean of {n})"
        ));
        out.layer("llm.explain_accuracy_pct", accuracy, "%");
        out.layer("llm.explain_wrong_pct", wrong, "%");
        out.layer("llm.sim_response_ms", sim, "ms");
    }
}

pub fn explain_fresh(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (ex, setup_s) = set_up();
    let (stream, off) = held_out(args.seed, if args.trace { STREAM } else { PASS });
    out.note(format!(
        "context: 1 client, closed loop; pipeline at TPC-H scale {SCALE}, {N_TRAIN} training queries, KB {KB_SIZE}, K={TOP_K}; \
         {} held-out queries generated, {off} off the reference",
        stream.len()
    ));
    let sql_at = |i: usize| stream[i % stream.len()].as_str();
    let explain = |i: usize, out: &mut Outcome| match ex.explain_sql(sql_at(i), &[]) {
        Ok(r) if report_ok(&r, None) => out.op(true),
        Ok(_) => out.op(false),
        Err(e) => out.op_error(format!("{e}: {}", sql_at(i))),
    };

    let warm = warm_up(args.seconds, |i| explain(i, &mut out));
    if args.trace {
        traced_fresh(&ex, sql_at, explain, warm, args.seconds, &mut out);
    } else {
        let clear = || ex.system().clear_plan_cache();
        let (rounds, lats) = closed_rounds(args.seconds, PASS, clear, |i| explain(i, &mut out));
        end_to_end(&mut out, &rounds, &lats, setup_s);
        out.note("explain_accuracy_pct, explain_wrong_pct, sim_llm_response_ms: graded in the traced run".into());
    }
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    out
}

/// Traced-run summary.
struct TraceTally {
    tracer: Tracer,
    /// Durations of the request roots (the untraced loop's unit of work).
    request_ns: Vec<u64>,
    /// `core.explain_outcome` minus its replayed layers, per request.
    explain_self_ns: Vec<f64>,
    tokens: (u64, u64),
    mismatches: u64,
    llm: SimulatedLlm,
}

impl TraceTally {
    fn new() -> TraceTally {
        TraceTally {
            tracer: Tracer::new(Instant::now()),
            request_ns: Vec::new(),
            explain_self_ns: Vec::new(),
            tokens: (0, 0),
            mismatches: 0,
            llm: SimulatedLlm::new(),
        }
    }

    /// The explain half of a request, recomposed from the layers' public
    /// calls: router encoding, KB search, prompt assembly, simulated LLM.
    /// Every call is a child span of `parent`; checking the result against
    /// the request's is left to [`TraceTally::record`], outside the span.
    fn replay_explain(
        &mut self,
        ex: &Explainer,
        req: u64,
        parent: usize,
        o: &QueryOutcome,
    ) -> ExplainReplay {
        let tr = &mut self.tracer;
        let key = tr.leaf("treecnn.embed_pair", req, Some(parent), || {
            ex.router().embed_pair(&o.tp.plan, &o.ap.plan)
        });
        let embed = tr.last_dur_ns();
        let hits = tr.leaf("vectordb.search", req, Some(parent), || {
            ex.kb().search(&key, TOP_K)
        });
        let search = tr.last_dur_ns();
        let prompt = tr.leaf("prompt.build", req, Some(parent), || Prompt {
            config: ex.config().prompt.clone(),
            knowledge: hits.iter().map(|h| (h.value.clone(), h.distance)).collect(),
            question: Question {
                sql: o.sql.clone(),
                tp_plan: o.tp.plan.clone(),
                ap_plan: o.ap.plan.clone(),
                winner: o.winner(),
                freshness: o
                    .bound
                    .tables
                    .iter()
                    .filter_map(|t| ex.system().database().freshness(&t.name))
                    .collect(),
            },
            user_context: Vec::new(),
        });
        let output = tr.leaf("llm.explain", req, Some(parent), || {
            self.llm.explain(&prompt)
        });
        let gen = tr.last_dur_ns();
        ExplainReplay {
            layers_ns: embed + search + gen,
            ids: hits.iter().map(|h| h.id).collect(),
            prompt,
            output,
        }
    }

    /// Tallies a replayed explanation: tokens, the explain path's own time
    /// (`explain_ns` minus the replayed layers) and whether it matched.
    fn record(&mut self, replay: &ExplainReplay, explain_ns: u64, want: &ExplainReport) -> bool {
        self.tokens.0 += replay.prompt.token_count() as u64;
        self.tokens.1 += replay.output.token_count() as u64;
        self.explain_self_ns
            .push(explain_ns as f64 - replay.layers_ns as f64);
        replay.ids == want.retrieved_ids && replay.output.text == want.output.text
    }

    /// Reports the explain-path layers, the reconciliation and the tracing
    /// overhead.
    fn finish(self, ex: &Explainer, untraced: f64, out: &mut Outcome) {
        let layers = trace::by_layer(self.tracer.spans());
        let med = |name: &str| layers.get(name).map_or(0.0, |l| l.median_us());
        let n = self.request_ns.len().max(1) as f64;
        out.layer("treecnn.embed_pair_us", med("treecnn.embed_pair"), "us");
        out.layer("vectordb.search_us", med("vectordb.search"), "us");
        out.layer("vectordb.kb_entries", ex.kb().len() as f64, "count");
        out.layer("llm.explain_us", med("llm.explain"), "us");
        out.layer("llm.prompt_tokens", self.tokens.0 as f64 / n, "count");
        out.layer("llm.output_tokens", self.tokens.1 as f64 / n, "count");
        out.layer("core.explain_outcome_us", med("core.explain_outcome"), "us");
        out.layer(
            "core.explain_outcome_self_us",
            median(&self.explain_self_ns) / 1e3,
            "us",
        );
        out.check(
            self.mismatches == 0,
            "recomposed layer path reproduces the request's output",
        );

        let traced = n / (self.request_ns.iter().sum::<u64>() as f64 / 1e9);
        trace::summary(self.tracer.spans(), &self.request_ns, untraced, traced, out);
        let path = std::path::Path::new(crate::RUN_DIR).join("spans-explain_fresh.tsv");
        if let Err(e) = trace::write_tsv(&path, self.tracer.spans()) {
            out.note(format!("span log not written: {e}"));
        }
    }
}

fn traced_fresh<'a>(
    ex: &Explainer,
    sql_at: impl Fn(usize) -> &'a str,
    explain: impl Fn(usize, &mut Outcome),
    first: usize,
    seconds: f64,
    out: &mut Outcome,
) {
    let sys: &HtapSystem = ex.system();
    let mut t = TraceTally::new();
    let mut dual_self_ns = Vec::new();
    let mut grades = Grades::default();
    let mut tp_work = (0u64, 0u64); // (rows examined, rows returned)
    let mut ap_work = (0u64, 0u64); // (cells scanned, rows returned)
    let mut sim_ns = (0u64, 0u64);
    let (mut hits, mut misses) = (0, 0);
    // Every block starts on an empty plan cache, as the untraced block
    // before it did: both plan each query afresh.
    let traced = |reqs: std::ops::Range<usize>, out: &mut Outcome| {
        let cache_before = sys.plan_cache_stats();
        for i in reqs {
            let (req, sql) = (i as u64, sql_at(i));
            let tr = &mut t.tracer;
            let root = tr.begin("request", req, None);
            let outcome = tr.leaf("engine.dual_run", req, Some(root), || {
                ex.session().execute_sql(sql)
            });
            let dual_ns = tr.span(root + 1).dur_ns();
            let o = match outcome {
                Ok(StatementOutcome::Query(o)) => o,
                Ok(_) => {
                    tr.end(root);
                    out.op(false);
                    continue;
                }
                Err(e) => {
                    tr.end(root);
                    out.op_error(format!("{e}"));
                    continue;
                }
            };
            let r = tr.leaf("core.explain_outcome", req, Some(root), || {
                ex.explain_outcome(&o, &[])
            });
            let explain_ns = tr.span(root + 2).dur_ns();
            tr.end(root);
            t.request_ns.push(tr.span(root).dur_ns());
            out.op(report_ok(&r, Some(&o)));

            // Replay: the dual run recomposed from bind, plan, execute and the
            // snapshot pin, then the explain path; both must reproduce the
            // request's rows, WorkCounters and explanation.
            let replay = tr.begin("replay", req, None);
            let engine = replay_engine(sys, tr, req, replay, sql);
            let explained = t.replay_explain(ex, req, replay, &o);
            t.tracer.end(replay);

            let same_engine = engine.as_ref().is_some_and(|e| {
                e.tp_plan == o.tp.plan
                    && e.ap_plan == o.ap.plan
                    && (e.tp.0 == o.tp.rows && e.tp.1 == o.tp.counters)
                    && (e.ap.0 == o.ap.rows && e.ap.1 == o.ap.counters)
            });
            let engine_ns = engine.as_ref().map_or(0, |e| e.ns);
            dual_self_ns.push(dual_ns as f64 - engine_ns as f64);
            let same = t.record(&explained, explain_ns, &r);
            t.mismatches += u64::from(!(same && same_engine));
            grades.record(ex, &o, &r);

            let c = &o.tp.counters;
            tp_work.0 += c.rows_scanned + c.index_fetches;
            tp_work.1 += c.output_rows;
            ap_work.0 += o.ap.counters.cells_scanned;
            ap_work.1 += o.ap.counters.output_rows;
            sim_ns.0 += o.tp.latency_ns;
            sim_ns.1 += o.ap.latency_ns;
        }
        let cache = sys.plan_cache_stats();
        hits += cache.hits - cache_before.hits;
        misses += cache.misses - cache_before.misses;
    };
    let untraced = alternate(
        first,
        seconds,
        out,
        || sys.clear_plan_cache(),
        explain,
        traced,
    );

    let layers = trace::by_layer(t.tracer.spans());
    let med = |name: &str| layers.get(name).map_or(0.0, |l| l.median_us());
    let n = t.request_ns.len().max(1) as f64;
    out.layer("sql.bind_us", med("sql.bind"), "us");
    out.layer("opt.plan_tp_us", med("opt.plan_tp"), "us");
    out.layer("opt.plan_ap_us", med("opt.plan_ap"), "us");
    out.layer("exec.tp_us", med("exec.tp"), "us");
    out.layer("exec.ap_us", med("exec.ap"), "us");
    out.layer(
        "exec.tp_rows_examined_per_row",
        tp_work.0 as f64 / tp_work.1.max(1) as f64,
        "count",
    );
    out.layer(
        "exec.ap_cells_per_row",
        ap_work.0 as f64 / ap_work.1.max(1) as f64,
        "count",
    );
    out.layer("engine.dual_run_us", med("engine.dual_run"), "us");
    out.layer("engine.dual_run_self_us", median(&dual_self_ns) / 1e3, "us");
    out.layer("sim.tp_latency_ms", sim_ns.0 as f64 / n / 1e6, "ms");
    out.layer("sim.ap_latency_ms", sim_ns.1 as f64 / n / 1e6, "ms");
    out.layer("storage.pin_snapshot_us", med("storage.pin_snapshot"), "us");
    out.layer(
        "session.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    grades.report(out);
    t.finish(ex, untraced, out);
}

/// The explain path recomposed from the layers' public calls.
struct ExplainReplay {
    /// Summed duration of the router, KB search and LLM calls.
    layers_ns: u64,
    ids: Vec<u32>,
    prompt: Prompt,
    output: ExplanationOutput,
}

/// One dual run recomposed from the engine layers' public calls.
struct EngineReplay {
    tp_plan: PlanNode,
    ap_plan: PlanNode,
    tp: (Vec<exec::Row>, WorkCounters),
    ap: (Vec<exec::Row>, WorkCounters),
    /// Summed duration of the replayed layer calls.
    ns: u64,
}

/// Bind, plan both engines, execute TP under the database read lock, pin an
/// MVCC snapshot and execute AP on it: the steps `Session::execute_sql`
/// takes, each timed as its own span.
fn replay_engine(
    sys: &HtapSystem,
    tr: &mut Tracer,
    req: u64,
    parent: usize,
    sql: &str,
) -> Option<EngineReplay> {
    let p = Some(parent);
    let bound = tr.leaf("sql.bind", req, p, || sys.bind(sql)).ok()?;
    let tp_plan = tr
        .leaf("opt.plan_tp", req, p, || {
            sys.explain(&bound, EngineKind::Tp)
        })
        .ok()?;
    let ap_plan = tr
        .leaf("opt.plan_ap", req, p, || {
            sys.explain(&bound, EngineKind::Ap)
        })
        .ok()?;
    let tp = tr
        .leaf("exec.tp", req, p, || {
            let db = sys.database();
            exec::execute_with(&tp_plan, &bound, &db, EngineKind::Tp, sys.exec_config())
        })
        .ok()?;
    let snap = tr.leaf("storage.pin_snapshot", req, p, || sys.pin_snapshot());
    let ap = tr
        .leaf("exec.ap", req, p, || {
            exec::execute_with(
                &ap_plan,
                &bound,
                snap.database(),
                EngineKind::Ap,
                sys.exec_config(),
            )
        })
        .ok()?;
    let ns = tr.spans()[parent + 1..]
        .iter()
        .filter(|s| s.parent == p)
        .map(|s| s.dur_ns())
        .sum();
    Some(EngineReplay {
        tp_plan,
        ap_plan,
        tp,
        ap,
        ns,
    })
}
