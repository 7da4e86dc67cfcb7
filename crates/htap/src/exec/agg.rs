//! Aggregation execution (sort-based for TP, hash-based for AP).
//!
//! Output expressions may embed aggregate calls arbitrarily (e.g.
//! `SUM(x) / COUNT(*)`); we extract the distinct aggregate *leaves*, fold
//! them per group, then evaluate each output expression with the folded
//! values substituted in.

use super::guard::ExecGuard;
use super::{ExecError, Row, RowRef, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{eval, truthy, EvalError, Schema};
use crate::plan::AggSpec;
use crate::storage::col_store::{ColumnData, DictColumn};
use qpe_sql::ast::AggFunc;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::collections::{BTreeMap, HashSet};

/// A distinct aggregate call appearing in the outputs / HAVING clause.
#[derive(Debug, Clone, PartialEq)]
pub struct AggLeaf {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// DISTINCT flag.
    pub distinct: bool,
}

/// Collects the distinct aggregate leaves of an expression tree.
pub fn collect_leaves(expr: &BoundExpr, out: &mut Vec<AggLeaf>) {
    match expr {
        BoundExpr::Aggregate { func, arg, distinct } => {
            let leaf = AggLeaf {
                func: *func,
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
            };
            if !out.contains(&leaf) {
                out.push(leaf);
            }
        }
        BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::Param { .. } => {}
        BoundExpr::Binary { left, right, .. } => {
            collect_leaves(left, out);
            collect_leaves(right, out);
        }
        BoundExpr::Not(e)
        | BoundExpr::InList { expr: e, .. }
        | BoundExpr::InListParam { expr: e, .. }
        | BoundExpr::Like { expr: e, .. }
        | BoundExpr::IsNull { expr: e, .. }
        | BoundExpr::Substring { expr: e, .. } => collect_leaves(e, out),
        BoundExpr::Between { expr, low, high } => {
            collect_leaves(expr, out);
            collect_leaves(low, out);
            collect_leaves(high, out);
        }
    }
}

/// Running state for one aggregate leaf within one group.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<Value>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            int_sum: 0,
            min: None,
            max: None,
            distinct: HashSet::new(),
        }
    }

    fn update(&mut self, leaf: &AggLeaf, v: Option<Value>) {
        match v {
            None => {
                // COUNT(*) counts every row.
                self.count += 1;
            }
            Some(Value::Null) => {
                // SQL aggregates skip NULL inputs.
            }
            Some(val) => {
                if leaf.distinct && !self.distinct.insert(val.clone()) {
                    return;
                }
                self.count += 1;
                if let Some(x) = val.as_float() {
                    self.sum += x;
                }
                if let Value::Int(i) = val {
                    self.int_sum = self.int_sum.wrapping_add(i);
                } else {
                    self.sum_is_int = false;
                }
                match &self.min {
                    None => self.min = Some(val.clone()),
                    Some(m) => {
                        if val.total_cmp(m) == std::cmp::Ordering::Less {
                            self.min = Some(val.clone());
                        }
                    }
                }
                match &self.max {
                    None => self.max = Some(val.clone()),
                    Some(m) => {
                        if val.total_cmp(m) == std::cmp::Ordering::Greater {
                            self.max = Some(val.clone());
                        }
                    }
                }
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Evaluates an output expression with aggregate leaves substituted by their
/// folded values.
fn eval_with_aggs(
    expr: &BoundExpr,
    leaves: &[AggLeaf],
    values: &[Value],
    group_key_exprs: &[BoundExpr],
    group_key_vals: &[Value],
) -> Result<Value, EvalError> {
    // Group-by key expressions may appear verbatim in the projection.
    for (ge, gv) in group_key_exprs.iter().zip(group_key_vals.iter()) {
        if expr == ge {
            return Ok(gv.clone());
        }
    }
    match expr {
        BoundExpr::Aggregate { func, arg, distinct } => {
            let leaf = AggLeaf {
                func: *func,
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
            };
            let idx = leaves
                .iter()
                .position(|l| *l == leaf)
                .ok_or(EvalError::AggregateInScalarContext)?;
            Ok(values[idx].clone())
        }
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Binary { left, op, right } => {
            // Re-use the scalar evaluator by materializing both sides first.
            let l = eval_with_aggs(left, leaves, values, group_key_exprs, group_key_vals)?;
            let r = eval_with_aggs(right, leaves, values, group_key_exprs, group_key_vals)?;
            let schema = Schema::new(vec![]);
            let synthetic = BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(l)),
                op: *op,
                right: Box::new(BoundExpr::Literal(r)),
            };
            eval(&synthetic, &schema, &[])
        }
        BoundExpr::Column(_) => {
            // A bare column that is not a group key in an aggregate output —
            // binder rejects this, but guard anyway.
            Err(EvalError::AggregateInScalarContext)
        }
        other => {
            // Wrap remaining shapes (Not/IsNull/... over aggregates) by
            // evaluating sub-expressions first.
            let schema = Schema::new(vec![]);
            match other {
                BoundExpr::Not(e) => {
                    let v = eval_with_aggs(e, leaves, values, group_key_exprs, group_key_vals)?;
                    Ok(Value::Int(if truthy(&v) { 0 } else { 1 }))
                }
                BoundExpr::IsNull { expr, negated } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    Ok(Value::Int(if v.is_null() != *negated { 1 } else { 0 }))
                }
                BoundExpr::InList { expr, list, negated } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    let synthetic = BoundExpr::InList {
                        expr: Box::new(BoundExpr::Literal(v)),
                        list: list.clone(),
                        negated: *negated,
                    };
                    eval(&synthetic, &schema, &[])
                }
                BoundExpr::Substring { expr, start, len } => {
                    let v =
                        eval_with_aggs(expr, leaves, values, group_key_exprs, group_key_vals)?;
                    let synthetic = BoundExpr::Substring {
                        expr: Box::new(BoundExpr::Literal(v)),
                        start: *start,
                        len: *len,
                    };
                    eval(&synthetic, &schema, &[])
                }
                _ => Err(EvalError::AggregateInScalarContext),
            }
        }
    }
}

/// Executes grouping + aggregation, returning final projected rows.
///
/// `hash = true` uses hash grouping (AP), `false` sorts first (TP). Both
/// return rows ordered by group key so engine outputs are directly
/// comparable (hash-group output is canonicalized the same way real engines
/// do when asked for deterministic tests).
#[allow(clippy::too_many_arguments)]
pub fn aggregate(
    counters: &mut WorkCounters,
    input: &[RowRef<'_>],
    schema: &Schema,
    group_by: &[BoundExpr],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
    guard: &ExecGuard,
) -> Result<Vec<Row>, ExecError> {
    let leaves = collect_all_leaves(outputs, having);

    // Group rows. BTreeMap keys give deterministic (key-sorted) output for
    // both strategies; the sort-vs-hash distinction is carried by the work
    // counters, which is what the latency model consumes.
    let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
    // One key buffer for the whole input: a row whose group already exists
    // allocates no key; only a new group's first row copies it.
    let mut key: Vec<KeyWrap> = Vec::with_capacity(group_by.len());
    for (i, row) in input.iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.agg_rows += 1;
        if !hash {
            // sort-based grouping pays comparison costs
            counters.sort_comparisons += 1;
        }
        key.clear();
        for g in group_by {
            key.push(KeyWrap(eval(g, schema, row)?));
        }
        let states = match groups.get_mut(&key) {
            Some(states) => states,
            None => groups
                .entry(key.clone())
                .or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect()),
        };
        for (leaf, state) in leaves.iter().zip(states.iter_mut()) {
            let v = match &leaf.arg {
                Some(a) => Some(eval(a, schema, row)?),
                None => None,
            };
            state.update(leaf, v);
        }
    }

    finish_groups(groups, &leaves, group_by, outputs, having)
}

/// Vectorized aggregation: same grouping/folding/finishing machinery as
/// [`aggregate`], but driven by pre-computed key and argument columns
/// (dense, aligned with the selection) instead of per-row expression
/// evaluation. `len` is the dense input length. Counters and output are
/// identical to the row path by construction.
#[allow(clippy::too_many_arguments)]
pub fn aggregate_cols(
    counters: &mut WorkCounters,
    len: usize,
    key_cols: &[ColumnData],
    arg_cols: &[Option<ColumnData>],
    group_by: &[BoundExpr],
    leaves: &[AggLeaf],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
    guard: &ExecGuard,
) -> Result<Vec<Row>, ExecError> {
    debug_assert_eq!(leaves.len(), arg_cols.len());
    guard.check()?;
    // Dictionary-code grouping: a single dict-encoded key groups by `u32`
    // code into a dense per-code state table — no string materialization,
    // hashing, or tree comparisons per row. Rows fold in the same dense
    // order as the generic loop and group strings materialize once at the
    // end, so output, association order, and counters are identical.
    if let [ColumnData::Dict(d)] = key_cols {
        counters.agg_rows += len as u64;
        if !hash {
            counters.sort_comparisons += len as u64;
        }
        let per_code = fold_dict_groups(d, leaves, arg_cols, 0..len, guard);
        guard.check()?;
        return finish_groups(
            dict_groups_to_btree(d, per_code),
            leaves,
            group_by,
            outputs,
            having,
        );
    }
    let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
    for j in 0..len {
        if j % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.agg_rows += 1;
        if !hash {
            counters.sort_comparisons += 1;
        }
        let key: Vec<KeyWrap> = key_cols.iter().map(|c| KeyWrap(c.get(j))).collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect());
        for (leaf, (arg, state)) in leaves.iter().zip(arg_cols.iter().zip(states.iter_mut())) {
            state.update(leaf, arg.as_ref().map(|c| c.get(j)));
        }
    }
    finish_groups(groups, leaves, group_by, outputs, having)
}

/// Morsel-parallel variant of [`aggregate_cols`]: partitions *groups* (not
/// rows) by a key hash consistent with the grouping order, so each group's
/// state folds on exactly one worker over the global dense order — float
/// sums, DISTINCT sets and min/max ties all accumulate in the serial
/// association order, making the result bit-identical to the serial fold.
///
/// Scalar aggregation (no GROUP BY) has a single group and therefore no
/// group parallelism; it falls back to the serial fold (its inputs — the
/// key/argument columns — were already evaluated in parallel upstream).
#[allow(clippy::too_many_arguments)]
pub fn aggregate_cols_partitioned(
    counters: &mut WorkCounters,
    cfg: &super::parallel::ExecConfig,
    len: usize,
    key_cols: &[ColumnData],
    arg_cols: &[Option<ColumnData>],
    group_by: &[BoundExpr],
    leaves: &[AggLeaf],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
    hash: bool,
) -> Result<Vec<Row>, ExecError> {
    use super::parallel::{morsel_ranges, run_tasks};
    let guard = cfg.guard();
    if group_by.is_empty() || !cfg.parallel_for(len) {
        return aggregate_cols(
            counters, len, key_cols, arg_cols, group_by, leaves, outputs, having, hash, guard,
        );
    }
    guard.check()?;
    // Same counter totals as the serial per-row loop.
    counters.agg_rows += len as u64;
    if !hash {
        counters.sort_comparisons += len as u64;
    }
    let n_parts = cfg.threads.clamp(2, 255);
    // Dictionary-code grouping, partitioned: the per-code partition
    // assignment is computed once over the (small) value table with the same
    // key hash as the generic path, so group→partition placement is
    // unchanged; each partition then folds its rows through the dense
    // per-code table in ascending dense order — bit-identical to the serial
    // dict fold, which is bit-identical to the generic fold.
    if let [ColumnData::Dict(d)] = key_cols {
        let part_of: Vec<usize> = d
            .values
            .iter()
            .map(|s| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                hash_group_value(&Value::Str(s.clone()), &mut h);
                (std::hash::Hasher::finish(&h) % n_parts as u64) as usize
            })
            .collect();
        let ranges = morsel_ranges(len, cfg.morsel_rows, &[]);
        let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
            if guard.poll() {
                return lists;
            }
            for j in ranges[i].clone() {
                lists[part_of[d.codes[j] as usize]].push(j as u32);
            }
            lists
        });
        let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
        for lists in pieces {
            for (p, l) in lists.into_iter().enumerate() {
                by_part[p].extend(l);
            }
        }
        let folded = run_tasks(cfg.threads, n_parts, |p| {
            if guard.poll() {
                return BTreeMap::new();
            }
            let rows = by_part[p].iter().map(|&j| j as usize);
            dict_groups_to_btree(d, fold_dict_groups(d, leaves, arg_cols, rows, guard))
        });
        guard.check()?;
        let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
        for g in folded {
            groups.extend(g);
        }
        return finish_groups(groups, leaves, group_by, outputs, having);
    }
    // Pass 1, parallel over morsels: bucket row indices by the partition of
    // their key. Concatenating morsel buckets in morsel order keeps every
    // partition's index list in ascending dense order.
    let ranges = morsel_ranges(len, cfg.morsel_rows, &[]);
    let pieces = run_tasks(cfg.threads, ranges.len(), |i| {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
        if guard.poll() {
            return lists;
        }
        for j in ranges[i].clone() {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for c in key_cols {
                hash_group_value(&c.get(j), &mut h);
            }
            let p = (std::hash::Hasher::finish(&h) % n_parts as u64) as usize;
            lists[p].push(j as u32);
        }
        lists
    });
    let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
    for lists in pieces {
        for (p, l) in lists.into_iter().enumerate() {
            by_part[p].extend(l);
        }
    }
    // Pass 2, parallel over partitions: fold each partition's groups,
    // touching only its own rows, in global dense order.
    let folded = run_tasks(cfg.threads, n_parts, |p| {
        let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
        if guard.poll() {
            return groups;
        }
        for &j in &by_part[p] {
            let j = j as usize;
            let key: Vec<KeyWrap> = key_cols.iter().map(|c| KeyWrap(c.get(j))).collect();
            let states = groups
                .entry(key)
                .or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect());
            for (leaf, (arg, state)) in leaves.iter().zip(arg_cols.iter().zip(states.iter_mut()))
            {
                state.update(leaf, arg.as_ref().map(|c| c.get(j)));
            }
        }
        groups
    });
    // Partitions hold disjoint key sets, so extending reproduces the exact
    // serial BTreeMap.
    guard.check()?;
    let mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>> = BTreeMap::new();
    for g in folded {
        groups.extend(g);
    }
    finish_groups(groups, leaves, group_by, outputs, having)
}

/// Folds aggregate states into a dense per-dictionary-code table over the
/// given rows (ascending dense order). Codes never seen stay `None`, so only
/// groups that actually occur materialize — matching the generic fold.
/// Abandons the fold (returning a truncated table) once the guard trips; the
/// caller's next `check` discards the partial result.
fn fold_dict_groups<I: Iterator<Item = usize>>(
    d: &DictColumn,
    leaves: &[AggLeaf],
    arg_cols: &[Option<ColumnData>],
    rows: I,
    guard: &ExecGuard,
) -> Vec<Option<Vec<AggState>>> {
    let mut per_code: Vec<Option<Vec<AggState>>> = vec![None; d.values.len()];
    for (i, j) in rows.enumerate() {
        if i % GUARD_CHECK_ROWS == 0 && guard.poll() {
            return per_code;
        }
        let states = per_code[d.codes[j] as usize]
            .get_or_insert_with(|| leaves.iter().map(|_| AggState::new()).collect());
        for (leaf, (arg, state)) in leaves.iter().zip(arg_cols.iter().zip(states.iter_mut())) {
            state.update(leaf, arg.as_ref().map(|c| c.get(j)));
        }
    }
    per_code
}

/// Materializes dict-code groups into the key-sorted map `finish_groups`
/// consumes — one string clone per *group*, not per row.
fn dict_groups_to_btree(
    d: &DictColumn,
    per_code: Vec<Option<Vec<AggState>>>,
) -> BTreeMap<Vec<KeyWrap>, Vec<AggState>> {
    per_code
        .into_iter()
        .enumerate()
        .filter_map(|(code, states)| {
            states.map(|s| (vec![KeyWrap(Value::Str(d.values[code].clone()))], s))
        })
        .collect()
}

/// Hashes a grouping value consistently with [`KeyWrap`]'s ordering
/// ([`Value::total_cmp`]): values that compare equal *must* land in the same
/// partition even across representations — `Int(1)`, `Float(1.0)` and
/// `Date(1)` are total_cmp-equal, so all numeric values hash through their
/// `f64` bit pattern (which also keeps `-0.0` and NaN payloads distinct,
/// exactly as `f64::total_cmp` does).
fn hash_group_value<H: std::hash::Hasher>(v: &Value, h: &mut H) {
    use std::hash::Hash;
    match v {
        Value::Null => 0u8.hash(h),
        Value::Int(x) => (*x as f64).to_bits().hash(h),
        Value::Float(x) => x.to_bits().hash(h),
        Value::Date(d) => (*d as f64).to_bits().hash(h),
        Value::Str(s) => {
            1u8.hash(h);
            s.hash(h);
        }
    }
}

/// Collects the distinct aggregate leaves across outputs and HAVING.
pub fn collect_all_leaves(outputs: &[AggSpec], having: Option<&BoundExpr>) -> Vec<AggLeaf> {
    let mut leaves = Vec::new();
    for o in outputs {
        collect_leaves(&o.expr, &mut leaves);
    }
    if let Some(h) = having {
        collect_leaves(h, &mut leaves);
    }
    leaves
}

/// Folds grouped aggregate states into final projected rows (shared by the
/// row and columnar paths, so HAVING and output-expression semantics cannot
/// diverge between executors).
fn finish_groups(
    mut groups: BTreeMap<Vec<KeyWrap>, Vec<AggState>>,
    leaves: &[AggLeaf],
    group_by: &[BoundExpr],
    outputs: &[AggSpec],
    having: Option<&BoundExpr>,
) -> Result<Vec<Row>, ExecError> {
    // Scalar aggregation over empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), leaves.iter().map(|_| AggState::new()).collect());
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in &groups {
        let folded: Vec<Value> = leaves
            .iter()
            .zip(states.iter())
            .map(|(l, s)| s.finish(l.func))
            .collect();
        let key_vals: Vec<Value> = key.iter().map(|k| k.0.clone()).collect();
        if let Some(h) = having {
            let v = eval_with_aggs(h, leaves, &folded, group_by, &key_vals)?;
            if !truthy(&v) {
                continue;
            }
        }
        let mut row = Vec::with_capacity(outputs.len());
        for o in outputs {
            row.push(eval_with_aggs(&o.expr, leaves, &folded, group_by, &key_vals)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// Ord wrapper over [`Value`] for BTreeMap grouping keys.
#[derive(Debug, Clone, PartialEq)]
struct KeyWrap(Value);

impl Eq for KeyWrap {}

impl PartialOrd for KeyWrap {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyWrap {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_state_count_sum_avg() {
        let leaf = AggLeaf { func: AggFunc::Sum, arg: None, distinct: false };
        let mut s = AggState::new();
        s.update(&leaf, Some(Value::Int(3)));
        s.update(&leaf, Some(Value::Int(4)));
        s.update(&leaf, Some(Value::Null)); // skipped
        assert_eq!(s.finish(AggFunc::Count), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Sum), Value::Int(7));
        assert_eq!(s.finish(AggFunc::Avg), Value::Float(3.5));
    }

    #[test]
    fn agg_state_min_max() {
        let leaf = AggLeaf { func: AggFunc::Min, arg: None, distinct: false };
        let mut s = AggState::new();
        for v in [5, 2, 9] {
            s.update(&leaf, Some(Value::Int(v)));
        }
        assert_eq!(s.finish(AggFunc::Min), Value::Int(2));
        assert_eq!(s.finish(AggFunc::Max), Value::Int(9));
    }

    #[test]
    fn distinct_dedups() {
        let leaf = AggLeaf { func: AggFunc::Count, arg: None, distinct: true };
        let mut s = AggState::new();
        for v in [1, 1, 2, 2, 3] {
            s.update(&leaf, Some(Value::Int(v)));
        }
        assert_eq!(s.finish(AggFunc::Count), Value::Int(3));
    }

    #[test]
    fn sum_over_empty_is_null() {
        let s = AggState::new();
        assert_eq!(s.finish(AggFunc::Sum), Value::Null);
        assert_eq!(s.finish(AggFunc::Avg), Value::Null);
        assert_eq!(s.finish(AggFunc::Min), Value::Null);
        assert_eq!(s.finish(AggFunc::Count), Value::Int(0));
    }

    #[test]
    fn float_sum_stays_float() {
        let leaf = AggLeaf { func: AggFunc::Sum, arg: None, distinct: false };
        let mut s = AggState::new();
        s.update(&leaf, Some(Value::Float(1.5)));
        s.update(&leaf, Some(Value::Float(2.0)));
        assert_eq!(s.finish(AggFunc::Sum), Value::Float(3.5));
    }

    #[test]
    fn collect_leaves_dedups() {
        // COUNT(*) appearing twice collects once.
        let count = BoundExpr::Aggregate { func: AggFunc::Count, arg: None, distinct: false };
        let expr = BoundExpr::Binary {
            left: Box::new(count.clone()),
            op: qpe_sql::ast::BinaryOp::Add,
            right: Box::new(count),
        };
        let mut leaves = Vec::new();
        collect_leaves(&expr, &mut leaves);
        assert_eq!(leaves.len(), 1);
    }
}
