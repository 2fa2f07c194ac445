//! Clickstream processing (Section 7.2, Figure 4 of the paper).
//!
//! *"The task extracts click sessions that lead to buy actions and augments
//! them with detailed user information."* The flow is
//!
//! ```text
//! click → Reduce "Filter Buy Sessions" → Reduce "Condense Sessions"
//!       → Match "Filter Logged-In Sessions" (⋈ login)
//!       → Match "Append User Info"          (⋈ userinfo)
//! ```
//!
//! Non-relational bits, exactly as the paper stresses:
//!
//! * **Filter Buy Sessions** is called with all click records of a session
//!   and forwards *all of them or none* depending on whether any click is a
//!   buy — a group-predicate no relational operator expresses;
//! * **Condense Sessions** collapses a session into one record, appending
//!   click count and duration;
//! * **Append User Info** copies the profile fields of the (non-unique)
//!   `userinfo` relation with a **dynamic index loop**. The paper's SCA
//!   prototype "is restricted to field accesses with literals"; ours
//!   inherits that restriction, so SCA conservatively assumes the UDF may
//!   read and write everything. That blocks exactly one valid order — the
//!   join re-association `login ⋈ userinfo` — reproducing Table 1's
//!   clickstream row (manual 4, SCA 3).

use crate::udfs::join_concat;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeSet, HashMap};
use strato_dataflow::{CostHints, Plan, ProgramBuilder, SourceDef};
use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};
use strato_record::{DataSet, Record, Value};
use strato_sca::{EmitBounds, LocalProps};

/// Scale knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct ClickScale {
    /// Number of click sessions.
    pub sessions: usize,
    /// Average clicks per session (uniform 4..=2·avg−4).
    pub avg_clicks: usize,
    /// Fraction of sessions with a logged-in user.
    pub frac_logged: f64,
    /// Probability that a session contains a buy action.
    pub p_buy: f64,
    /// Number of distinct users.
    pub users: usize,
    /// Profile rows per user in `userinfo` (> 1 ⇒ non-unique user key).
    pub profiles_per_user: usize,
}

impl ClickScale {
    /// Test scale.
    pub fn tiny() -> Self {
        ClickScale {
            sessions: 120,
            avg_clicks: 6,
            frac_logged: 0.3,
            p_buy: 0.4,
            users: 30,
            profiles_per_user: 2,
        }
    }

    /// Benchmark scale.
    pub fn small() -> Self {
        ClickScale {
            sessions: 4_000,
            avg_clicks: 8,
            frac_logged: 0.25,
            p_buy: 0.35,
            users: 400,
            profiles_per_user: 2,
        }
    }

    fn est_clicks(&self) -> u64 {
        (self.sessions * self.avg_clicks) as u64
    }

    fn est_logins(&self) -> u64 {
        ((self.sessions as f64) * self.frac_logged) as u64
    }

    fn est_userinfo(&self) -> u64 {
        (self.users * self.profiles_per_user) as u64
    }
}

/// Generates the three relations. Deterministic per seed; distributions
/// match the hints attached by [`plan`].
pub fn generate(scale: ClickScale, seed: u64) -> HashMap<String, DataSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clicks = DataSet::new();
    for session in 0..scale.sessions as i64 {
        let n = rng.gen_range(4..=(2 * scale.avg_clicks).saturating_sub(4).max(5));
        let buys = rng.gen_bool(scale.p_buy);
        let buy_at = rng.gen_range(0..n);
        let t0 = rng.gen_range(0..1_000_000i64);
        for i in 0..n {
            let action = if buys && i == buy_at {
                1
            } else {
                *[0i64, 2, 3].choose(&mut rng).unwrap()
            };
            clicks.push(Record::from_values([
                Value::Int(rng.gen_range(0..1 << 24)), // ip
                Value::Int(t0 + i as i64 * 30),        // ts
                Value::Int(session),                   // session
                Value::Int(action),                    // action
            ]));
        }
    }

    // A random subset of sessions has a logged-in user.
    let mut logged: BTreeSet<i64> = BTreeSet::new();
    while (logged.len() as f64) < scale.sessions as f64 * scale.frac_logged {
        logged.insert(rng.gen_range(0..scale.sessions as i64));
    }
    let login: DataSet = logged
        .iter()
        .map(|&s| {
            Record::from_values([
                Value::Int(s),                                    // lsession
                Value::Int(rng.gen_range(0..scale.users as i64)), // luser
            ])
        })
        .collect();

    let mut userinfo = DataSet::new();
    for u in 0..scale.users as i64 {
        for k in 0..scale.profiles_per_user as i64 {
            userinfo.push(Record::from_values([
                Value::Int(u),                      // uuser
                Value::Int(k),                      // profile key
                Value::Int(rng.gen_range(0..1000)), // profile value
            ]));
        }
    }

    let mut m = HashMap::new();
    m.insert("click".to_string(), clicks);
    m.insert("login".to_string(), login);
    m.insert("userinfo".to_string(), userinfo);
    m
}

/// "Filter Buy Sessions": forwards all click records of the session iff
/// some click has `action == 1`.
fn filter_buy_sessions(width: usize, action_field: usize) -> Function {
    let mut b = FuncBuilder::new("filter_buy", UdfKind::Group, vec![width]);
    let found = b.konst(false);
    let one = b.konst(1i64);
    let it = b.iter_open(0);
    let scan_done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, scan_done);
    let a = b.get(r, action_field);
    let is_buy = b.bin(BinOp::Eq, a, one);
    b.bin_into(found, BinOp::Or, found, is_buy);
    b.jump(head);
    b.place(scan_done);
    let end = b.new_label();
    b.branch_not(found, end);
    let it2 = b.iter_open(0);
    let emit_done = b.new_label();
    let head2 = b.new_label();
    b.place(head2);
    let r2 = b.iter_next(it2, emit_done);
    let or = b.copy(r2);
    b.emit(or);
    b.jump(head2);
    b.place(emit_done);
    b.place(end);
    b.ret();
    b.finish().expect("filter_buy")
}

/// "Condense Sessions": one record per session — the canonical first click
/// plus click count and session duration as new fields.
fn condense_sessions(width: usize, ts_field: usize) -> Function {
    let mut b = FuncBuilder::new("condense", UdfKind::Group, vec![width]);
    let count = b.konst(0i64);
    let one = b.konst(1i64);
    let tmin = b.konst(i64::MAX);
    let tmax = b.konst(i64::MIN);
    let it = b.iter_open(0);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let r = b.iter_next(it, done);
    let ts = b.get(r, ts_field);
    b.bin_into(count, BinOp::Add, count, one);
    b.bin_into(tmin, BinOp::Min, tmin, ts);
    b.bin_into(tmax, BinOp::Max, tmax, ts);
    b.jump(head);
    b.place(done);
    let it2 = b.iter_open(0);
    let nil = b.new_label();
    let first = b.iter_next(it2, nil);
    let or = b.copy(first);
    b.set(or, width, count);
    let dur = b.bin(BinOp::Sub, tmax, tmin);
    b.set(or, width + 1, dur);
    b.emit(or);
    b.place(nil);
    b.ret();
    b.finish().expect("condense")
}

/// "Append User Info": copy the session record and append the profile
/// fields of the matched `userinfo` record — with a **dynamic index loop**
/// (the `i`-th profile field goes to output position `base + i`).
fn append_user_info(left_width: usize, right_width: usize) -> Function {
    let mut b = FuncBuilder::new("append_info", UdfKind::Pair, vec![left_width, right_width]);
    let or = b.copy_input(0);
    let in1 = b.input(1);
    let i = b.konst(0i64);
    let one = b.konst(1i64);
    let n = b.konst(right_width as i64);
    let base = b.konst(left_width as i64);
    let done = b.new_label();
    let head = b.new_label();
    b.place(head);
    let at_end = b.bin(BinOp::Ge, i, n);
    b.branch(at_end, done);
    let v = b.get_dyn(in1, i);
    let oi = b.bin(BinOp::Add, i, base);
    b.set_dyn(or, oi, v);
    b.bin_into(i, BinOp::Add, i, one);
    b.jump(head);
    b.place(done);
    b.emit(or);
    b.ret();
    b.finish().expect("append_info")
}

/// The hand-written (truthful) annotation for "Append User Info" — what
/// the paper's "manually attached annotations" supply and SCA cannot see
/// through the dynamic loop: the UDF reads the profile fields, writes
/// nothing, preserves both inputs and emits exactly one record per pair.
fn append_user_info_manual(right_width: usize) -> LocalProps {
    LocalProps {
        reads: (0..right_width).map(|f| (1u8, f)).collect(),
        control_reads: BTreeSet::new(),
        dynamic_read_inputs: BTreeSet::new(),
        dynamic_control_inputs: BTreeSet::new(),
        written_base: BTreeSet::new(),
        copied_inputs: 0b11,
        dynamic_write: false,
        added: BTreeSet::new(),
        emits: EmitBounds {
            min: 1,
            max: Some(1),
        },
        first_record_only: false,
    }
}

/// Builds the clickstream flow as implemented (Figure 4(a)).
///
/// Local schemas: click⟨ip,ts,session,action⟩; condense adds
/// ⟨n_clicks,duration⟩; login⟨lsession,luser⟩; userinfo⟨uuser,pkey,pval⟩.
pub fn plan(scale: ClickScale) -> Plan {
    let mut p = ProgramBuilder::new();
    let click = p.source(
        SourceDef::new(
            "click",
            &["ip", "ts", "session", "action"],
            scale.est_clicks(),
        )
        .with_bytes_per_row(40),
    );
    let login = p.source(
        SourceDef::new("login", &["lsession", "luser"], scale.est_logins())
            .with_unique_key(&[0])
            .with_bytes_per_row(22),
    );
    let userinfo = p.source(
        SourceDef::new("userinfo", &["uuser", "pkey", "pval"], scale.est_userinfo())
            .with_bytes_per_row(31),
    );

    let buy = p.reduce(
        "filter_buy_sessions",
        &[2],
        filter_buy_sessions(4, 3),
        CostHints::selectivity(scale.p_buy * scale.avg_clicks as f64)
            .with_distinct_keys(scale.sessions as u64)
            .with_cpu(2.0),
        click,
    );
    let condensed = p.reduce(
        "condense_sessions",
        &[2],
        condense_sessions(4, 1),
        CostHints::selectivity(1.0)
            .with_distinct_keys(((scale.sessions as f64) * scale.p_buy) as u64)
            .with_cpu(2.0),
        buy,
    );
    let logged = p.match_(
        "filter_logged_in",
        &[2],
        &[0],
        join_concat(6, 2),
        CostHints::selectivity(1.0).with_distinct_keys(scale.sessions as u64),
        condensed,
        login,
    );
    // luser sits at position 6 + 1 = 7 of the joined record.
    let full = p.op(
        strato_dataflow::Operator::new(
            "append_user_info",
            strato_dataflow::Pact::Match {
                key_left: vec![7],
                key_right: vec![0],
            },
            append_user_info(8, 3),
            CostHints::selectivity(1.0).with_distinct_keys(scale.users as u64),
        )
        .with_manual_props(append_user_info_manual(3)),
        vec![logged, userinfo],
    );
    p.finish(full)
        .expect("clickstream program")
        .bind()
        .expect("clickstream bind")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_core::{enumerate_all, PropTable};
    use strato_dataflow::PropertyMode;
    use strato_exec::{execute_logical, Inputs};

    fn as_inputs(m: HashMap<String, DataSet>) -> Inputs {
        m.into_iter().collect()
    }

    #[test]
    fn generator_matches_scale() {
        let scale = ClickScale::tiny();
        let data = generate(scale, 3);
        assert_eq!(
            data["userinfo"].len(),
            scale.users * scale.profiles_per_user
        );
        let sessions: BTreeSet<i64> = data["click"]
            .iter()
            .map(|r| r.field(2).as_int().unwrap())
            .collect();
        assert_eq!(sessions.len(), scale.sessions);
        // login unique per session.
        let logins: Vec<i64> = data["login"]
            .iter()
            .map(|r| r.field(0).as_int().unwrap())
            .collect();
        let uniq: BTreeSet<i64> = logins.iter().copied().collect();
        assert_eq!(logins.len(), uniq.len());
    }

    #[test]
    fn table1_clickstream_counts() {
        // The paper's Table 1 row: 4 orders with manual annotations,
        // 3 with SCA (75%).
        let plan = plan(ClickScale::tiny());
        let manual = PropTable::build(&plan, PropertyMode::Manual);
        let sca = PropTable::build(&plan, PropertyMode::Sca);
        let with_manual = enumerate_all(&plan, &manual, 1000);
        let with_sca = enumerate_all(&plan, &sca, 1000);
        assert_eq!(
            with_manual.len(),
            4,
            "manual annotations must yield 4 orders"
        );
        assert_eq!(
            with_sca.len(),
            3,
            "SCA must conservatively lose the re-association"
        );
        // The SCA set is a subset of the manual set.
        let man_set: BTreeSet<String> = with_manual.iter().map(|p| p.canonical()).collect();
        for p in &with_sca {
            assert!(man_set.contains(&p.canonical()));
        }
    }

    #[test]
    fn all_four_orders_equivalent() {
        let scale = ClickScale::tiny();
        let plan = plan(scale);
        let inputs = as_inputs(generate(scale, 17));
        let (reference, _) = execute_logical(&plan, &inputs).unwrap();
        assert!(!reference.is_empty());
        let props = PropTable::build(&plan, PropertyMode::Manual);
        for alt in enumerate_all(&plan, &props, 100) {
            let (out, _) = execute_logical(&alt, &inputs).unwrap();
            if let Err(d) = reference.bag_diff(&out) {
                panic!("clickstream order diverged:\n{}\n{d}", alt.render());
            }
        }
    }

    #[test]
    fn buy_filter_semantics() {
        let scale = ClickScale::tiny();
        let plan = plan(scale);
        let inputs = as_inputs(generate(scale, 23));
        let (out, _) = execute_logical(&plan, &inputs).unwrap();
        // Every output record has n_clicks ≥ 1 and a profile value.
        let g = &plan.ctx.global;
        let cnt = g.by_name("condense_sessions.$0").unwrap();
        let pval = g.by_name("userinfo.pval").unwrap();
        for r in out.iter() {
            assert!(r.field(cnt.index()).as_int().unwrap() >= 1);
            assert!(!r.field(pval.index()).is_null());
        }
        // Each surviving session appears profiles_per_user times.
        assert_eq!(out.len() % scale.profiles_per_user, 0);
    }

    #[test]
    fn best_plan_pushes_logged_in_filter_down() {
        // Figure 4(b): the optimizer pushes the selective login join below
        // both reduces.
        let scale = ClickScale::small();
        let plan = plan(scale);
        let opt = strato_core::Optimizer::new(PropertyMode::Manual);
        let report = opt.optimize(&plan);
        assert_eq!(report.n_enumerated, 4);
        let best = report.best();
        // In the winning order, filter_logged_in must sit below filter_buy
        // (deeper in the tree = later in pre-order).
        let order = best.plan.op_order();
        let names: Vec<&str> = order
            .iter()
            .map(|&o| best.plan.ctx.ops[o].name.as_str())
            .collect();
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(
            pos("filter_logged_in") > pos("filter_buy_sessions"),
            "expected the login join pushed down, got order {names:?}"
        );
    }
}
