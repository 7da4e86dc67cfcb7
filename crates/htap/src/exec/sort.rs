//! Sort, top-N and output-sort execution.
//!
//! Two flavors share one key order ([`Value::total_cmp`] per key, reversed
//! for DESC): the row interpreter sorts its in-flight rows by a permutation
//! over flat pre-evaluated key columns ([`full_sort`]) or a bounded buffer
//! ([`top_n`]); the vectorized executor sorts *selection vectors* over
//! column batches ([`full_sort_indices`], [`top_n_indices`]) and defers row
//! materialization to the consumer. Every kernel produces the *stable*
//! order — equal keys keep input order, for full sorts, fused Sort→Limit
//! prefixes and bounded top-N buffers alike — so tie-breaking, and
//! therefore output order, is identical across executors and engines.

use super::guard::ExecGuard;
use super::{ExecError, RowRef, WorkCounters, GUARD_CHECK_ROWS};
use crate::eval::{eval, Schema};
use crate::storage::col_store::ColumnData;
use qpe_sql::binder::BoundExpr;
use qpe_sql::value::Value;
use std::cmp::Ordering;
use std::ops::Deref;

/// Compares two rows on pre-computed key values.
fn cmp_keys(a: &[Value], b: &[Value], descs: &[bool]) -> Ordering {
    for ((x, y), desc) in a.iter().zip(b.iter()).zip(descs.iter()) {
        let o = x.total_cmp(y);
        let o = if *desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// The deterministic n·log2(n) comparison charge shared by both executors —
/// counted asymptotically rather than by instrumenting the comparator, so
/// work does not depend on sort-implementation internals.
pub(crate) fn charge_sort_comparisons(counters: &mut WorkCounters, n: u64) {
    counters.sort_comparisons += n * (64 - n.max(1).leading_zeros() as u64).max(1);
}

/// One sort key evaluated over the whole input, in the narrowest flat form
/// its values allow. An all-`Int` or all-`Float` key compares as `i64` /
/// `f64` exactly as [`Value::total_cmp`] orders those variants; any other
/// mix keeps the values and compares them with `total_cmp` itself.
enum KeyColumn {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Values(Vec<Value>),
}

impl KeyColumn {
    fn new(values: Vec<Value>) -> KeyColumn {
        let ints: Option<Vec<i64>> = values
            .iter()
            .map(|v| match v {
                Value::Int(x) => Some(*x),
                _ => None,
            })
            .collect();
        if let Some(ints) = ints {
            return KeyColumn::Int(ints);
        }
        let floats: Option<Vec<f64>> = values
            .iter()
            .map(|v| match v {
                Value::Float(x) => Some(*x),
                _ => None,
            })
            .collect();
        match floats {
            Some(floats) => KeyColumn::Float(floats),
            None => KeyColumn::Values(values),
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            KeyColumn::Int(v) => v[a].cmp(&v[b]),
            KeyColumn::Float(v) => v[a].total_cmp(&v[b]),
            KeyColumn::Values(v) => v[a].total_cmp(&v[b]),
        }
    }
}

/// Full sort on expression keys (TP's only ORDER BY strategy without an
/// index; also AP's when no LIMIT bounds the sort).
///
/// Keys are evaluated once, row by row, into one flat column per key (see
/// [`KeyColumn`]); a `u32` permutation is then ordered by (keys, input
/// position) — a total order whose sorted sequence is exactly the stable
/// sort's. With `prefix = Some(k)` (a Limit directly above reads only the
/// first `k` rows) the `k` smallest positions are selected first and only
/// they are sorted: the same rows in the same order as the first `k` of the
/// full sort. `sort_comparisons` is charged n·log2 n on the full input
/// either way.
pub fn full_sort<'a>(
    counters: &mut WorkCounters,
    mut input: Vec<RowRef<'a>>,
    schema: &Schema,
    keys: &[(BoundExpr, bool)],
    prefix: Option<usize>,
    guard: &ExecGuard,
) -> Result<Vec<RowRef<'a>>, ExecError> {
    let n = input.len();
    // A bare-column key reads its cell directly; anything else (a missing
    // column's error included) goes through the evaluator.
    let cells: Vec<Option<usize>> = keys
        .iter()
        .map(|(k, _)| {
            k.as_bare_column()
                .and_then(|c| schema.position(c.table_slot, c.column_idx))
        })
        .collect();
    let mut values: Vec<Vec<Value>> = keys.iter().map(|_| Vec::with_capacity(n)).collect();
    for (i, row) in input.iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        for (((k, _), cell), col) in keys.iter().zip(&cells).zip(values.iter_mut()) {
            col.push(match cell {
                Some(p) => row[*p].clone(),
                None => eval(k, schema, row)?,
            });
        }
    }
    charge_sort_comparisons(counters, n as u64);
    let columns: Vec<(KeyColumn, bool)> = values
        .into_iter()
        .map(KeyColumn::new)
        .zip(keys.iter().map(|(_, d)| *d))
        .collect();
    let order = |a: &u32, b: &u32| {
        for (col, desc) in &columns {
            let o = col.cmp(*a as usize, *b as usize);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        a.cmp(b)
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let keep = prefix.unwrap_or(n);
    if keep < n {
        if keep == 0 {
            return Ok(Vec::new());
        }
        perm.select_nth_unstable_by(keep - 1, order);
        perm.truncate(keep);
    }
    perm.sort_unstable_by(order);
    Ok(perm
        .into_iter()
        .map(|p| std::mem::take(&mut input[p as usize]))
        .collect())
}

/// Vectorized full sort: stable-sorts the selection by pre-computed key
/// columns (dense, aligned with the selection). Returns the permuted
/// selection; rows are never materialized here.
pub fn full_sort_indices(
    counters: &mut WorkCounters,
    key_cols: &[ColumnData],
    descs: &[bool],
    sel: Vec<u32>,
    guard: &ExecGuard,
) -> Vec<u32> {
    let n = sel.len();
    charge_sort_comparisons(counters, n as u64);
    // Key tuples per dense position; the stable sort then reproduces the row
    // interpreter's permutation exactly (same comparator, same input order).
    let mut keyed: Vec<(Vec<Value>, u32)> = Vec::with_capacity(n);
    for (j, phys) in sel.into_iter().enumerate() {
        if j % GUARD_CHECK_ROWS == 0 && guard.poll() {
            // Abandon on trip; the caller's next check discards this.
            return Vec::new();
        }
        keyed.push((key_cols.iter().map(|c| c.get(j)).collect(), phys));
    }
    keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, descs));
    keyed.into_iter().map(|(_, phys)| phys).collect()
}

/// Morsel-parallel variant of [`full_sort_indices`]: contiguous chunks of
/// the selection are stable-sorted on worker threads, then merged with ties
/// taken from the lower chunk. A stable sort's output permutation is
/// *unique* (equal keys keep input order), and lower chunks hold lower
/// input positions, so the merged result is bit-identical to the serial
/// stable sort — same rows, same tie order, same counters (the comparison
/// charge is asymptotic in `n`, not implementation-dependent).
pub fn full_sort_indices_par(
    counters: &mut WorkCounters,
    cfg: &super::parallel::ExecConfig,
    key_cols: &[ColumnData],
    descs: &[bool],
    sel: Vec<u32>,
) -> Vec<u32> {
    let n = sel.len();
    let guard = cfg.guard();
    if !cfg.parallel_for(n) {
        return full_sort_indices(counters, key_cols, descs, sel, guard);
    }
    charge_sort_comparisons(counters, n as u64);
    // Contiguous equal chunks, one per worker (keys are keyed by *dense*
    // position j, which is what ties break on).
    let chunks = cfg.threads.min(n.div_ceil(cfg.morsel_rows)).max(1);
    let step = n.div_ceil(chunks);
    let sorted_chunks = super::parallel::run_tasks(cfg.threads, chunks, |c| {
        if guard.poll() {
            // Abandon the chunk on trip; the executor's next check discards
            // the truncated merge below.
            return Vec::new();
        }
        let lo = c * step;
        let hi = ((c + 1) * step).min(n);
        let mut keyed: Vec<(Vec<Value>, u32)> = (lo..hi)
            .map(|j| (key_cols.iter().map(|k| k.get(j)).collect(), sel[j]))
            .collect();
        keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, descs));
        keyed
    });
    // k-way stable merge: scan chunks in order, strictly-less replaces —
    // so ties go to the lowest (earliest-input) chunk. Merge however many
    // entries the chunks actually hold — fewer than `n` only when the guard
    // tripped mid-sort.
    let total: usize = sorted_chunks.iter().map(|c| c.len()).sum();
    let mut cursors = vec![0usize; sorted_chunks.len()];
    let mut out = Vec::with_capacity(total);
    for i in 0..total {
        if i % GUARD_CHECK_ROWS == 0 && guard.poll() {
            return out;
        }
        let mut best: Option<usize> = None;
        for (c, chunk) in sorted_chunks.iter().enumerate() {
            if cursors[c] >= chunk.len() {
                continue;
            }
            best = match best {
                None => Some(c),
                Some(b) => {
                    let kb = &sorted_chunks[b][cursors[b]].0;
                    let kc = &chunk[cursors[c]].0;
                    if cmp_keys(kc, kb, descs) == Ordering::Less {
                        Some(c)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let b = best.expect("n elements remain across chunks");
        out.push(sorted_chunks[b][cursors[b]].1);
        cursors[b] += 1;
    }
    out
}

/// Bounded top-N selection (AP's dedicated operator): keeps the best
/// `limit + offset` rows, then drops the first `offset`. A new row goes in
/// *after* every buffered row with an equal key, and a full buffer admits
/// only a strictly better row, so the result is exactly the first
/// `limit + offset` rows of the stable full sort — the order TP's Sort and
/// Limit produce.
pub fn top_n<'a>(
    counters: &mut WorkCounters,
    input: Vec<RowRef<'a>>,
    schema: &Schema,
    keys: &[(BoundExpr, bool)],
    limit: u64,
    offset: u64,
    guard: &ExecGuard,
) -> Result<Vec<RowRef<'a>>, ExecError> {
    let need = (limit + offset) as usize;
    if need == 0 {
        return Ok(Vec::new());
    }
    let descs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
    // Simple bounded selection: maintain a sorted buffer of at most `need`
    // rows. Each push charges one heap operation.
    let mut buf: Vec<(Vec<Value>, RowRef<'a>)> = Vec::with_capacity(need.min(input.len()) + 1);
    for (i, row) in input.into_iter().enumerate() {
        if i % GUARD_CHECK_ROWS == 0 {
            guard.check()?;
        }
        counters.topn_pushes += 1;
        let kv: Vec<Value> = keys
            .iter()
            .map(|(k, _)| eval(k, schema, &row))
            .collect::<Result<_, _>>()?;
        insert_stable(&mut buf, need, kv, row, &descs);
    }
    Ok(buf
        .into_iter()
        .skip(offset as usize)
        .map(|(_, r)| r)
        .collect())
}

/// One bounded top-N push: inserts `(kv, item)` after the last buffered
/// entry whose key is not greater (ties keep arrival order), evicting the
/// worst entry when the buffer already holds `need`; a full buffer ignores
/// an entry that does not beat its worst.
fn insert_stable<T>(
    buf: &mut Vec<(Vec<Value>, T)>,
    need: usize,
    kv: Vec<Value>,
    item: T,
    descs: &[bool],
) {
    if buf.len() >= need && cmp_keys(&kv, &buf[need - 1].0, descs) != Ordering::Less {
        return;
    }
    let pos = buf.partition_point(|(k, _)| cmp_keys(k, &kv, descs) != Ordering::Greater);
    buf.insert(pos, (kv, item));
    buf.truncate(need);
}

/// Vectorized top-N: identical bounded-buffer algorithm as [`top_n`], driven
/// by pre-computed key columns over a selection. Only the winning
/// `limit + offset` entries ever hold key tuples; rows are materialized
/// later by the consumer from the returned selection.
pub fn top_n_indices(
    counters: &mut WorkCounters,
    key_cols: &[ColumnData],
    descs: &[bool],
    sel: Vec<u32>,
    limit: u64,
    offset: u64,
    guard: &ExecGuard,
) -> Vec<u32> {
    let need = (limit + offset) as usize;
    if need == 0 {
        return Vec::new();
    }
    let mut buf: Vec<(Vec<Value>, u32)> = Vec::with_capacity(need.min(sel.len()) + 1);
    for (j, phys) in sel.into_iter().enumerate() {
        if j % GUARD_CHECK_ROWS == 0 && guard.poll() {
            // Abandon on trip; the caller's next check discards this.
            return Vec::new();
        }
        counters.topn_pushes += 1;
        let kv: Vec<Value> = key_cols.iter().map(|c| c.get(j)).collect();
        insert_stable(&mut buf, need, kv, phys, descs);
    }
    buf.into_iter()
        .skip(offset as usize)
        .map(|(_, phys)| phys)
        .collect()
}

/// Positional sort over already-projected output rows (ORDER BY on
/// aggregated projections).
pub fn output_sort<R: Deref<Target = [Value]>>(
    counters: &mut WorkCounters,
    mut input: Vec<R>,
    keys: &[(usize, bool)],
    guard: &ExecGuard,
) -> Result<Vec<R>, ExecError> {
    guard.check()?;
    charge_sort_comparisons(counters, input.len() as u64);
    input.sort_by(|a, b| {
        for &(pos, desc) in keys {
            let o = a[pos].total_cmp(&b[pos]);
            let o = if desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_keys_respects_direction() {
        let a = vec![Value::Int(1), Value::Int(9)];
        let b = vec![Value::Int(1), Value::Int(3)];
        assert_eq!(cmp_keys(&a, &b, &[false, false]), Ordering::Greater);
        assert_eq!(cmp_keys(&a, &b, &[false, true]), Ordering::Less);
        assert_eq!(cmp_keys(&a, &a, &[false, false]), Ordering::Equal);
    }

    #[test]
    fn index_sort_matches_row_sort_on_ties() {
        // Duplicate keys: the stable index sort must reproduce the row
        // sort's tie order (input order).
        let keys = ColumnData::Int(vec![3, 1, 3, 1, 2]);
        let mut c = WorkCounters::default();
        let sel: Vec<u32> = (0..5).collect();
        let sorted = full_sort_indices(&mut c, &[keys], &[false], sel, ExecGuard::unlimited());
        assert_eq!(sorted, vec![1, 3, 4, 0, 2]);
        assert!(c.sort_comparisons > 0);
    }

    #[test]
    fn top_n_indices_keeps_best_and_applies_offset() {
        let keys = ColumnData::Int(vec![5, 2, 9, 1, 7, 3]);
        let mut c = WorkCounters::default();
        let sel: Vec<u32> = (0..6).collect();
        let top =
            top_n_indices(&mut c, &[keys], &[false], sel, 2, 1, ExecGuard::unlimited());
        // ascending: 1 (idx 3), 2 (idx 1), 3 (idx 5) → offset 1 drops idx 3
        assert_eq!(top, vec![1, 5]);
        assert_eq!(c.topn_pushes, 6);
    }

    /// Tie-heavy keys: the first `need` positions of the stable sort.
    fn stable_prefix(keys: &[i64], descs: bool, need: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let o = keys[a as usize].cmp(&keys[b as usize]);
            if descs {
                o.reverse()
            } else {
                o
            }
        });
        idx.truncate(need);
        idx
    }

    #[test]
    fn top_n_keeps_ties_in_input_order() {
        let keys: Vec<i64> = (0..200).map(|i| (i * 7 % 5) / 2).collect();
        let schema = Schema::new(vec![(0, 0), (0, 1)]);
        let key = qpe_sql::binder::BoundExpr::Column(qpe_sql::binder::ColumnRef {
            table_slot: 0,
            column_idx: 0,
            data_type: qpe_sql::catalog::DataType::Int,
        });
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Int(k), Value::Int(i as i64)])
            .collect();
        for desc in [false, true] {
            for (limit, offset) in [(1, 0), (5, 0), (30, 10), (50, 75), (10, 195), (5, 400)] {
                let want: Vec<u32> = stable_prefix(&keys, desc, limit + offset)
                    .into_iter()
                    .skip(offset)
                    .collect();
                let sel: Vec<u32> = (0..keys.len() as u32).collect();
                let mut c = WorkCounters::default();
                let got = top_n_indices(
                    &mut c,
                    &[ColumnData::Int(keys.clone())],
                    &[desc],
                    sel,
                    limit as u64,
                    offset as u64,
                    ExecGuard::unlimited(),
                );
                assert_eq!(
                    got, want,
                    "indices desc {desc} limit {limit} offset {offset}"
                );
                assert_eq!(c.topn_pushes, keys.len() as u64);
                let input: Vec<RowRef<'_>> =
                    rows.iter().map(|r| RowRef::Borrowed(&r[..])).collect();
                let mut c = WorkCounters::default();
                let got = top_n(
                    &mut c,
                    input,
                    &schema,
                    &[(key.clone(), desc)],
                    limit as u64,
                    offset as u64,
                    ExecGuard::unlimited(),
                )
                .unwrap();
                let got: Vec<u32> = got.iter().map(|r| r[1].as_int().unwrap() as u32).collect();
                assert_eq!(got, want, "rows desc {desc} limit {limit} offset {offset}");
                assert_eq!(c.topn_pushes, keys.len() as u64);
            }
        }
    }
}
