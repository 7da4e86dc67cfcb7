//! Kernel-equivalence tests for the row interpreter: every kernel is held
//! to the straightforward per-pair / stable-sort reference it replaces, on
//! rows, their order and [`WorkCounters`], and a guard that trips inside a
//! kernel still surfaces as [`ExecError::Governed`].

use super::sort::{charge_sort_comparisons, full_sort};
use super::*;
use crate::opt::{tp, PlannerCtx};
use crate::tpch::TpchConfig;
use qpe_sql::ast::BinaryOp;
use qpe_sql::binder::{Binder, ColumnRef};
use qpe_sql::catalog::DataType;
use std::cmp::Ordering;

fn col(column_idx: usize) -> BoundExpr {
    BoundExpr::Column(ColumnRef {
        table_slot: 0,
        column_idx,
        data_type: DataType::Int,
    })
}

fn borrowed(rows: &[Row]) -> Vec<RowRef<'_>> {
    rows.iter().map(|r| Cow::Borrowed(&r[..])).collect()
}

fn materialize(rows: Vec<RowRef<'_>>) -> Vec<Row> {
    rows.into_iter().map(Cow::into_owned).collect()
}

fn cancelled_guard() -> ExecGuard {
    let guard = ExecGuard::new(&StatementLimits::unlimited());
    guard.cancel_handle().cancel();
    guard
}

/// The per-pair nested-loop join the key-column kernel replaces, building
/// full-width rows; `out_schema` lays out outer then inner cells.
fn nlj_reference(
    outer: &[Row],
    inner: &[Row],
    keys: &[(usize, usize)],
    residual: Option<&BoundExpr>,
    out_schema: &Schema,
) -> (Vec<Row>, WorkCounters) {
    let mut c = WorkCounters::default();
    let mut out = Vec::new();
    for o in outer {
        for i in inner {
            c.nlj_pairs += 1;
            if keys.iter().all(|&(l, r)| o[l].sql_eq(&i[r])) {
                let mut row = o.clone();
                row.extend_from_slice(i);
                if let Some(resid) = residual {
                    c.filter_evals += 1;
                    if !eval_predicate(resid, out_schema, &row).unwrap() {
                        continue;
                    }
                }
                out.push(row);
            }
        }
    }
    (out, c)
}

/// Outer cells are table slot 0, inner cells slot 1.
fn slot_schema(slot: usize, rows: &[Row]) -> Schema {
    Schema::new(
        (0..rows.first().map_or(0, Vec::len))
            .map(|c| (slot, c))
            .collect(),
    )
}

fn assert_nlj_matches_reference(
    outer: &[Row],
    inner: &[Row],
    keys: &[(usize, usize)],
    residual: Option<&BoundExpr>,
) {
    let (outer_schema, inner_schema) = (slot_schema(0, outer), slot_schema(1, inner));
    let full = outer_schema.concat(&inner_schema);
    let (want, want_c) = nlj_reference(outer, inner, keys, residual, &full);
    // Every column needed, then every other column plus the residual's: the
    // output keeps exactly the picked cells, in layout order.
    let some = full.columns().iter().copied().step_by(2).collect();
    let some = Needs::Cols(Rc::new(some)).with_exprs(residual);
    for needs in [Needs::All, some] {
        let picks = JoinPicks::new(&outer_schema, &inner_schema, &needs);
        let mut got_c = WorkCounters::default();
        let got = nested_loop_join(
            &mut got_c,
            ExecGuard::unlimited(),
            &borrowed(outer),
            &borrowed(inner),
            keys,
            residual,
            &picks,
        )
        .unwrap();
        let want: Vec<Row> = want
            .iter()
            .map(|r| {
                picks
                    .schema
                    .columns()
                    .iter()
                    .map(|&(slot, c)| r[full.position(slot, c).unwrap()].clone())
                    .collect()
            })
            .collect();
        assert_eq!(materialize(got), want, "keys {keys:?}");
        assert_eq!(got_c, want_c, "keys {keys:?}");
    }
}

#[test]
fn nlj_int_key_columns_match_the_per_pair_loop() {
    let outer: Vec<Row> = (0..40)
        .map(|i| {
            vec![
                Value::Int(i % 7),
                Value::Int(i % 3),
                Value::Str(format!("o{i}")),
            ]
        })
        .collect();
    let inner: Vec<Row> = (0..30)
        .map(|i| vec![Value::Int(i % 5), Value::Int(i % 2), Value::Float(i as f64)])
        .collect();
    // The inner row's Float cell above 10.
    let residual = BoundExpr::Binary {
        left: Box::new(BoundExpr::Column(ColumnRef {
            table_slot: 1,
            column_idx: 2,
            data_type: DataType::Float,
        })),
        op: BinaryOp::Gt,
        right: Box::new(BoundExpr::Literal(Value::Float(10.0))),
    };
    for keys in [
        vec![(0, 0)],
        vec![(0, 0), (1, 1)],
        vec![(1, 1), (0, 0)],
        vec![],
    ] {
        assert_nlj_matches_reference(&outer, &inner, &keys, None);
        assert_nlj_matches_reference(&outer, &inner, &keys, Some(&residual));
    }
}

#[test]
fn nlj_mixed_int_float_null_keys_match_the_per_pair_loop() {
    let mixed = |i: i64| match i % 6 {
        0 => Value::Null,
        1 => Value::Float(i as f64 % 4.0),
        2 => Value::Float(0.5),
        3 => Value::Date((i % 4) as i32),
        _ => Value::Int(i % 4),
    };
    let ints: Vec<Row> = (0..24)
        .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
        .collect();
    let mixed_rows: Vec<Row> = (0..24).map(|i| vec![mixed(i), Value::Int(i)]).collect();
    // Int inner keys with mixed outer keys: outer rows with a Float, Date
    // or NULL key take the per-pair path (`Int 3 = Float 3.0` matches,
    // NULL never does); the rest scan the flat column.
    assert_nlj_matches_reference(&mixed_rows, &ints, &[(0, 0)], None);
    // Mixed inner keys: the whole join compares per pair.
    assert_nlj_matches_reference(&ints, &mixed_rows, &[(0, 0)], None);
    assert_nlj_matches_reference(&mixed_rows, &mixed_rows, &[(0, 0)], None);
    // Multi-key join where only the second key is mixed.
    assert_nlj_matches_reference(&ints, &mixed_rows, &[(1, 1), (0, 0)], None);
    // Empty sides.
    assert_nlj_matches_reference(&[], &ints, &[(0, 0)], None);
    assert_nlj_matches_reference(&ints, &[], &[(0, 0)], None);
}

/// The stable sort on per-row key vectors that the flat-key kernel replaces.
fn stable_sort_reference(rows: &[Row], keys: &[(BoundExpr, bool)], schema: &Schema) -> Vec<Row> {
    let mut keyed: Vec<(Vec<Value>, Row)> = rows
        .iter()
        .map(|r| {
            (
                keys.iter()
                    .map(|(k, _)| eval(k, schema, r).unwrap())
                    .collect(),
                r.clone(),
            )
        })
        .collect();
    keyed.sort_by(|(a, _), (b, _)| {
        for ((x, y), (_, desc)) in a.iter().zip(b).zip(keys) {
            let o = x.total_cmp(y);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Rows with heavy key ties: cell 0 mixes NULL/Int/Float/Str and cell 1
/// Int/NULL (compared as values), cell 3 is all `Float` and cell 4 all
/// `Int` (compared as flat `f64` / `i64`). Cell 2 is the input position,
/// so any tie-order slip shows.
fn tie_heavy_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let k0 = match i % 9 {
                0 => Value::Null,
                1 | 2 => Value::Float((i % 4) as f64),
                3 => Value::Str(format!("s{}", i % 3)),
                _ => Value::Int(i % 4),
            };
            let k1 = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 2)
            };
            vec![
                k0,
                k1,
                Value::Int(i),
                Value::Float((i % 7) as f64 / 2.0),
                Value::Int(i % 5),
            ]
        })
        .collect()
}

#[test]
fn fused_sort_limit_equals_the_stable_sort_prefix() {
    let rows = tie_heavy_rows(300);
    let schema = slot_schema(0, &rows);
    let n = rows.len() as u64;
    for keys in [
        vec![(col(0), false)],
        vec![(col(0), true)],
        vec![(col(0), true), (col(1), false)],
        vec![(col(1), false), (col(0), true)],
        vec![(col(3), true)],
        vec![(col(4), false), (col(3), true)],
        vec![(col(3), false), (col(0), true)],
    ] {
        let sorted = stable_sort_reference(&rows, &keys, &schema);
        let mut want_c = WorkCounters::default();
        charge_sort_comparisons(&mut want_c, n);
        // Unfused: the full stable order.
        let mut c = WorkCounters::default();
        let got = full_sort(
            &mut c,
            borrowed(&rows),
            &schema,
            &keys,
            None,
            ExecGuard::unlimited(),
        );
        assert_eq!(materialize(got.unwrap()), sorted);
        assert_eq!(c, want_c);
        // Fused under Limit: limit 0, offsets inside and past the end.
        for (limit, offset) in [
            (0, 0),
            (0, 7),
            (1, 0),
            (5, 0),
            (10, 3),
            (20, 290),
            (5, 300),
            (4, 1000),
        ] {
            let need = limit + offset;
            let mut c = WorkCounters::default();
            let got = full_sort(
                &mut c,
                borrowed(&rows),
                &schema,
                &keys,
                Some(need),
                ExecGuard::unlimited(),
            )
            .unwrap();
            let got: Vec<Row> = materialize(got)
                .into_iter()
                .skip(offset)
                .take(limit)
                .collect();
            let want: Vec<Row> = sorted.iter().skip(offset).take(limit).cloned().collect();
            assert_eq!(got, want, "keys {keys:?} limit {limit} offset {offset}");
            assert_eq!(c, want_c, "the charge covers the full input, fused or not");
        }
    }
}

#[test]
fn guard_tripped_inside_a_kernel_surfaces_as_governed() {
    let guard = cancelled_guard();
    let rows: Vec<Row> = (0..64).map(|i| vec![Value::Int(i % 8)]).collect();
    let schema = slot_schema(0, &rows);
    let mut c = WorkCounters::default();
    // 64 × 64 pairs pass the 1k-pair check inside the join loop.
    let picks = JoinPicks::new(&slot_schema(0, &rows), &slot_schema(1, &rows), &Needs::All);
    let nlj = nested_loop_join(
        &mut c,
        &guard,
        &borrowed(&rows),
        &borrowed(&rows),
        &[(0, 0)],
        None,
        &picks,
    );
    assert!(matches!(
        nlj,
        Err(ExecError::Governed(GovernError::Cancelled))
    ));
    let sorted = full_sort(
        &mut c,
        borrowed(&rows),
        &schema,
        &[(col(0), false)],
        Some(3),
        &guard,
    );
    assert!(matches!(
        sorted,
        Err(ExecError::Governed(GovernError::Cancelled))
    ));
}

fn tp_plan(db: &Database, sql: &str) -> (BoundQuery, PlanNode) {
    let q = Binder::new(db.catalog()).bind_sql(sql).unwrap();
    let plan = tp::plan(&PlannerCtx::new(&q, db.stats(), db.catalog())).unwrap();
    (q, plan)
}

#[test]
fn borrowed_scan_over_tombstones_matches_the_live_rows() {
    let mut db = Database::generate(&TpchConfig::with_scale(0.002));
    let deleted: Vec<u32> = (0..300).step_by(4).collect();
    db.apply_delete("customer", &deleted);
    let (q, plan) = tp_plan(&db, "SELECT * FROM customer");
    // The scan hands out the row store's own rows, borrowed, live ones only.
    let scan = {
        let mut node = &plan;
        while !node.children.is_empty() {
            node = &node.children[0];
        }
        node
    };
    assert!(matches!(scan.op, PlanOp::TableScan { .. }));
    let mut ex = Executor {
        query: &q,
        db: &db,
        engine: EngineKind::Tp,
        counters: WorkCounters::default(),
        guard: ExecGuard::unlimited(),
    };
    let rows = ex.run(scan, &Needs::All).unwrap().rows;
    let table = db.row_table("customer").unwrap();
    let live: Vec<&Vec<Value>> = table.iter_live().map(|(_, r)| r).collect();
    assert_eq!(rows.len(), 300 - deleted.len());
    assert_eq!(rows.len(), live.len());
    for (got, want) in rows.iter().zip(&live) {
        assert!(matches!(got, Cow::Borrowed(_)), "TP scan rows are borrowed");
        assert_eq!(&got[..], &want[..]);
    }
    assert_eq!(ex.counters.rows_scanned, live.len() as u64);
    // End to end, the materialized output is the same live rows.
    let (out, c) = execute(&plan, &q, &db, EngineKind::Tp).unwrap();
    assert_eq!(out.iter().collect::<Vec<_>>(), live);
    assert_eq!(c.rows_scanned, live.len() as u64);
    assert_eq!(c.output_rows, live.len() as u64);
}

#[test]
fn plan_level_sort_limit_equals_the_unlimited_sort_prefix() {
    let mut db = Database::generate(&TpchConfig::with_scale(0.002));
    db.apply_delete("orders", &(0..600).step_by(3).collect::<Vec<u32>>());
    let base =
        "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderstatus DESC, o_orderpriority";
    let (q, plan) = tp_plan(&db, base);
    let (all, all_c) = execute(&plan, &q, &db, EngineKind::Tp).unwrap();
    for (limit, offset) in [(0, 0), (5, 0), (10, 25), (7, 395), (5, 5000)] {
        let (q, plan) = tp_plan(&db, &format!("{base} LIMIT {limit} OFFSET {offset}"));
        let (rows, c) = execute(&plan, &q, &db, EngineKind::Tp).unwrap();
        let want: Vec<Row> = all.iter().skip(offset).take(limit).cloned().collect();
        assert_eq!(rows, want, "limit {limit} offset {offset}");
        assert_eq!(
            c,
            WorkCounters {
                output_rows: want.len() as u64,
                ..all_c
            }
        );
    }
}
