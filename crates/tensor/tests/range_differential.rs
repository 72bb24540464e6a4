//! Differential test of the range simplifier and the loop-nest slot
//! compiler: random quasi-affine index expressions and conditions over
//! one to four bounded loop variables, each checked point by point
//! against its simplified form, its compiled slot and its strides.
//!
//! The generator favours the shapes tuned layouts produce: split
//! quotients and remainders `(k·x + y) / (k·m)` and `(k·x + y) mod (k·m)`
//! (with `y` sometimes too wide for the reduction, and divisors `k` does
//! not divide), and the unfold and pad shapes `min(e / m, 0)` and
//! `e − min(e / m, 0)·m`.

use proptest::prelude::*;

use alt_tensor::expr::{Env, Expr, Var};
use alt_tensor::op::Cond;
use alt_tensor::range::{run, Folded, LoopRanges, SlotCompiler, SlotOp};

/// A seeded LCG; proptest draws one seed per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// The loop variables of one case, outermost first.
struct Nest {
    vars: Vec<Expr>,
    extents: Vec<i64>,
}

impl Nest {
    fn ranges(&self) -> LoopRanges {
        let mut r = LoopRanges::new();
        for (k, &e) in self.extents.iter().enumerate() {
            r.push(k as u32, e);
        }
        r
    }

    /// Every point of the nest as an environment.
    fn points(&self) -> Vec<Env> {
        let mut out = vec![Env::new()];
        for (k, &e) in self.extents.iter().enumerate() {
            out = out
                .into_iter()
                .flat_map(|env| {
                    (0..e).map(move |i| {
                        let mut env = env.clone();
                        env.bind_id(k as u32, i);
                        env
                    })
                })
                .collect();
        }
        out
    }
}

fn expr(g: &mut Gen, n: &Nest, depth: u32) -> Expr {
    let leaf = |g: &mut Gen| {
        if g.below(3) == 0 {
            Expr::c(g.below(7) - 2)
        } else {
            n.vars[g.below(n.vars.len() as u64) as usize].clone()
        }
    };
    if depth == 0 || g.below(5) == 0 {
        return leaf(g);
    }
    let a = expr(g, n, depth - 1);
    match g.below(10) {
        0 => a.add(&expr(g, n, depth - 1)),
        1 => a.sub(&expr(g, n, depth - 1)),
        2 => a.mul_c(g.below(9) - 3),
        3 => a.div_c(1 + g.below(6)),
        4 => a.mod_c(1 + g.below(6)),
        5 => a.min_e(&expr(g, n, depth - 1)),
        6 => a.max_e(&expr(g, n, depth - 1)),
        7 => a.mul(&leaf(g)),
        8 => {
            // A split of a fused pair: `y` is a loop variable and `k` its
            // extent, or one less (then `y` is too wide to reduce).
            let j = g.below(n.vars.len() as u64) as usize;
            let k = (n.extents[j] - g.below(2)).max(1);
            let fused = a.mul_c(k).add(&n.vars[j]);
            // Mostly a multiple of `k`; sometimes a divisor `k` does not
            // divide.
            let d = if g.below(4) == 0 {
                1 + g.below(12)
            } else {
                k * (1 + g.below(4))
            };
            if g.below(2) == 0 {
                fused.div_c(d)
            } else {
                fused.mod_c(d)
            }
        }
        _ => {
            // The unfold and pad shapes.
            let m = 1 + g.below(8);
            let q = a.div_c(m).min_e(&Expr::c(0));
            if g.below(2) == 0 {
                q
            } else {
                a.sub(&q.mul_c(m))
            }
        }
    }
}

fn cond(g: &mut Gen, n: &Nest, depth: u32) -> Cond {
    match g.below(5) {
        0 if depth > 0 => cond(g, n, depth - 1).and(cond(g, n, depth - 1)),
        // A bound check against a loop extent, which the ranges often
        // decide.
        1 => {
            let j = g.below(n.vars.len() as u64) as usize;
            let e = expr(g, n, 2);
            Cond::Lt(e.add(&n.vars[j]), Expr::c(n.extents[j] + g.below(8)))
        }
        2 => Cond::Ge(expr(g, n, 3), expr(g, n, 2)),
        3 => Cond::Lt(expr(g, n, 3), expr(g, n, 2)),
        _ => Cond::Eq(expr(g, n, 3), expr(g, n, 2)),
    }
}

/// Opens one loop per variable of `n`, outermost first, and returns
/// their slots.
fn open(c: &mut SlotCompiler, n: &Nest) -> Vec<u32> {
    n.extents
        .iter()
        .enumerate()
        .map(|(k, &e)| c.push_loop(k as u32, e))
        .collect()
}

fn nest(g: &mut Gen) -> Nest {
    let count = 1 + g.below(4) as u32;
    Nest {
        vars: (0..count)
            .map(|k| Expr::v(&Var::new(k, format!("v{k}"))))
            .collect(),
        extents: (0..count).map(|_| 1 + g.below(9)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simplified expression equals the original at every in-range
    /// point, and `range` contains every value it takes.
    #[test]
    fn simplified_expressions_agree_at_every_point(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = nest(&mut g);
        let r = n.ranges();
        let points = n.points();
        for _ in 0..4 {
            let e = expr(&mut g, &n, 4);
            let s = r.simplify(&e);
            let (lo, hi) = r.range(&e);
            for env in &points {
                let (want, got) = (e.eval(env), s.eval(env));
                prop_assert!(got == want, "{e} simplified to {s}: {got} != {want} at {env:?}");
                prop_assert!(lo <= want && want <= hi, "{e} = {want} outside [{lo}, {hi}]");
            }
        }
    }

    /// A condition folds to a constant only when every in-range point
    /// agrees, and an open condition evaluates as the original.
    #[test]
    fn conditions_fold_only_when_every_point_agrees(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = nest(&mut g);
        let r = n.ranges();
        let points = n.points();
        for _ in 0..4 {
            let c = cond(&mut g, &n, 2);
            let folded = r.simplify_cond(&c);
            for env in &points {
                let want = c.eval(env);
                let got = match &folded {
                    Folded::Always => true,
                    Folded::Never => false,
                    Folded::Open(s) => s.eval(env),
                };
                prop_assert!(got == want, "{c:?} folded to {folded:?} at {env:?}");
            }
        }
    }

    /// Compiled with one loop per nest variable and run in odometer
    /// order (the root ops once, then at each point the ops of every loop
    /// from the outermost one whose variable stepped), every expression's
    /// and condition's slot equals `eval` at every point.
    #[test]
    fn compiled_slots_agree_at_every_point(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = nest(&mut g);
        let exprs: Vec<Expr> = (0..4).map(|_| expr(&mut g, &n, 4)).collect();
        let conds: Vec<Cond> = (0..4).map(|_| cond(&mut g, &n, 2)).collect();
        let mut c = SlotCompiler::new();
        let vars = open(&mut c, &n);
        let e_slots: Vec<u32> = exprs.iter().map(|e| c.expr(e).expect("bound")).collect();
        let c_slots: Vec<u32> = conds.iter().map(|k| c.cond(k).expect("bound")).collect();
        let mut levels: Vec<Vec<SlotOp>> = vars.iter().map(|_| c.pop_loop()).collect();
        levels.push(c.take_root());
        levels.reverse();
        let mut slots = c.init();
        let mut prev: Option<Vec<i64>> = None;
        for env in n.points() {
            let idx: Vec<i64> = (0..vars.len() as u32)
                .map(|k| env.get_id(k).expect("bound"))
                .collect();
            let from = prev.map_or(0, |p| {
                1 + p.iter().zip(&idx).position(|(a, b)| a != b).unwrap_or(vars.len())
            });
            for (&v, &i) in vars.iter().zip(&idx) {
                slots[v as usize] = i;
            }
            for ops in &levels[from..] {
                run(ops, &mut slots);
            }
            for (e, &s) in exprs.iter().zip(&e_slots) {
                let (want, got) = (e.eval(&env), slots[s as usize]);
                prop_assert!(got == want, "{e}: slot {got} != {want} at {env:?}");
            }
            for (k, &s) in conds.iter().zip(&c_slots) {
                let (want, got) = (i64::from(k.eval(&env)), slots[s as usize]);
                prop_assert!(got == want, "{k:?}: slot {got} != {want} at {env:?}");
            }
            prev = Some(idx);
        }
    }

    /// One expression compiled in two sibling loop nests under a shared
    /// outer loop: the second nest's ops and result read no slot of an op
    /// placed in the closed first nest, whose value is stale there.
    #[test]
    fn sibling_loops_read_no_closed_loop_slot(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = loop {
            let n = nest(&mut g);
            if n.vars.len() >= 2 {
                break n;
            }
        };
        let e = expr(&mut g, &n, 4);
        let mut c = SlotCompiler::new();
        c.push_loop(0, n.extents[0]);
        let mut placed = Vec::new();
        for sibling in 0..2 {
            let vars: Vec<u32> = (1..n.vars.len())
                .map(|k| c.push_loop(k as u32, n.extents[k]))
                .collect();
            let result = c.expr(&e).expect("bound");
            let ops: Vec<SlotOp> = vars.iter().flat_map(|_| c.pop_loop()).collect();
            if sibling == 0 {
                placed = ops.iter().map(|op| op.dst).collect();
                continue;
            }
            let reads = ops.iter().flat_map(|op| [op.a, op.b]).chain([result]);
            for s in reads {
                prop_assert!(!placed.contains(&s), "{e}: the second nest reads closed slot {s}");
            }
        }
    }

    /// Where `stride` finds an expression, or its simplified form, affine
    /// in a variable, stepping that variable by one inside its range
    /// changes the value by exactly the stride.
    #[test]
    fn strides_are_exact_steps(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = nest(&mut g);
        let r = n.ranges();
        let points = n.points();
        for _ in 0..4 {
            let e = expr(&mut g, &n, 4);
            for e in [r.simplify(&e), e] {
                for (k, &extent) in n.extents.iter().enumerate() {
                    let Some(s) = r.stride(&e, k as u32) else {
                        continue;
                    };
                    for env in &points {
                        let i = env.get_id(k as u32).expect("bound");
                        if i + 1 < extent {
                            let mut next = env.clone();
                            next.bind_id(k as u32, i + 1);
                            let step = e.eval(&next) - e.eval(env);
                            prop_assert!(step == s, "{e}: step {step} != stride {s} at {env:?}");
                        }
                    }
                }
            }
        }
    }
}
