//! Value ranges of index expressions, simplification against them, and
//! the one compiler of index math over a loop nest.
//!
//! Inside a loop nest every loop variable ranges over `[0, extent)`, and
//! those ranges decide much of the quasi-affine index math that layout
//! primitives produce: a split quotient is below its factor, a loop
//! variable always passes its bound check, a `min` never changes order.
//! The interval rules here ([`interval`] and [`identity`]) are the one
//! place that knowledge lives. [`LoopRanges`] applies them to whole
//! expressions and conditions:
//!
//! * every `floordiv`, `mod`, `min`, `max` and comparison the ranges
//!   decide folds to a constant or to one of its operands;
//! * split quotients and remainders reduce: `(k·x + y) / (k·m)` becomes
//!   `x / m`, and `(k·x + y) mod (k·m)` becomes `k·(x mod m) + y`, when
//!   `0 ≤ y < k`;
//! * sums are rebuilt with their terms ordered outermost loop first, so a
//!   partial sum over outer variables is computed once per outer
//!   iteration by a compiler that hoists by variable depth;
//! * [`LoopRanges::stride`] reads off the step of an expression that is
//!   affine in one variable.
//!
//! Simplification is exact on the ranges: the result evaluates equal to
//! the input at every point where each variable lies in its range.
//!
//! [`SlotCompiler`] turns expressions and conditions into three-address
//! [`SlotOp`]s over a flat `i64` slot file, each placed at the loop of its
//! deepest variable, hash-consed and folded op by op by the same rules;
//! [`run`] is the one loop that executes them. The layout crate's
//! conversion walks and the native kernel compiler are its two callers.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{BinOp, Expr};
use crate::op::Cond;

/// A closed interval `[lo, hi]` of `i64` values.
pub type Interval = (i64, i64);

/// The interval that says nothing.
pub const ANY: Interval = (i64::MIN, i64::MAX);

/// An integer operation the interval rules cover: an index operator, or
/// a comparison yielding 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// An index operator with [`Expr`] semantics.
    Bin(BinOp),
    /// `a >= b`.
    Ge,
    /// `a < b`.
    Lt,
    /// `a == b`.
    Eq,
}

impl Code {
    /// `a <code> b`; `floordiv` and `mod` are euclidean.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            Code::Bin(BinOp::Add) => a + b,
            Code::Bin(BinOp::Sub) => a - b,
            Code::Bin(BinOp::Mul) => a * b,
            Code::Bin(BinOp::FloorDiv) => a.div_euclid(b),
            Code::Bin(BinOp::Mod) => a.rem_euclid(b),
            Code::Bin(BinOp::Min) => a.min(b),
            Code::Bin(BinOp::Max) => a.max(b),
            Code::Ge => i64::from(a >= b),
            Code::Lt => i64::from(a < b),
            Code::Eq => i64::from(a == b),
        }
    }
}

/// The interval of `a <code> b` for operands in the closed intervals `x`
/// and `y`; [`ANY`] when nothing tighter is known.
pub fn interval(code: Code, x: Interval, y: Interval) -> Interval {
    let decide = |always: bool, never: bool| match (always, never) {
        (true, _) => (1, 1),
        (_, true) => (0, 0),
        _ => (0, 1),
    };
    match code {
        Code::Bin(BinOp::Add) => (x.0.saturating_add(y.0), x.1.saturating_add(y.1)),
        Code::Bin(BinOp::Sub) => (x.0.saturating_sub(y.1), x.1.saturating_sub(y.0)),
        Code::Bin(BinOp::Mul) => {
            let p = [
                x.0.saturating_mul(y.0),
                x.0.saturating_mul(y.1),
                x.1.saturating_mul(y.0),
                x.1.saturating_mul(y.1),
            ];
            (
                p.into_iter().min().unwrap_or(i64::MIN),
                p.into_iter().max().unwrap_or(i64::MAX),
            )
        }
        Code::Bin(BinOp::FloorDiv) if y.0 == y.1 && y.0 > 0 => {
            (x.0.div_euclid(y.0), x.1.div_euclid(y.0))
        }
        Code::Bin(BinOp::Mod) if y.0 == y.1 && y.0 > 0 => {
            let m = y.0;
            if x.0.div_euclid(m) == x.1.div_euclid(m) {
                (x.0.rem_euclid(m), x.1.rem_euclid(m))
            } else {
                (0, m - 1)
            }
        }
        Code::Bin(BinOp::Min) => (x.0.min(y.0), x.1.min(y.1)),
        Code::Bin(BinOp::Max) => (x.0.max(y.0), x.1.max(y.1)),
        Code::Bin(BinOp::FloorDiv | BinOp::Mod) => ANY,
        Code::Ge => decide(x.0 >= y.1, x.1 < y.0),
        Code::Lt => decide(x.1 < y.0, x.0 >= y.1),
        Code::Eq => decide(x.0 == x.1 && x == y, x.1 < y.0 || y.1 < x.0),
    }
}

/// One operand of a binary operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// The left operand, `a` in `a <code> b`.
    Left,
    /// The right operand.
    Right,
}

/// The operand `a <code> b` equals for every value in the operands'
/// intervals `x` and `y`, if one does (`e + 0`, `e * 1`, `e mod m` for
/// `e` already in `[0, m)`, a `min` whose order the intervals decide).
pub fn identity(code: Code, x: Interval, y: Interval) -> Option<Operand> {
    let (zero, one) = ((0, 0), (1, 1));
    match code {
        Code::Bin(BinOp::Add) if y == zero => Some(Operand::Left),
        Code::Bin(BinOp::Add) if x == zero => Some(Operand::Right),
        Code::Bin(BinOp::Sub) if y == zero => Some(Operand::Left),
        Code::Bin(BinOp::Mul | BinOp::FloorDiv) if y == one => Some(Operand::Left),
        Code::Bin(BinOp::Mul) if x == one => Some(Operand::Right),
        Code::Bin(BinOp::Mod) if y.0 == y.1 && x.0 >= 0 && x.1 < y.0 => Some(Operand::Left),
        Code::Bin(BinOp::Min) if x.1 <= y.0 => Some(Operand::Left),
        Code::Bin(BinOp::Min) if y.1 <= x.0 => Some(Operand::Right),
        Code::Bin(BinOp::Max) if x.0 >= y.1 => Some(Operand::Left),
        Code::Bin(BinOp::Max) if y.0 >= x.1 => Some(Operand::Right),
        _ => None,
    }
}

/// A condition after simplification against loop ranges.
#[derive(Clone, Debug)]
pub enum Folded {
    /// True at every point of the ranges.
    Always,
    /// False at every point of the ranges.
    Never,
    /// Decided per point; the operands are simplified.
    Open(Cond),
}

/// The loop variables in scope, outermost first, each ranging over
/// `[0, extent)`. Variables out of scope are treated as unbounded and
/// innermost.
#[derive(Clone, Debug, Default)]
pub struct LoopRanges {
    vars: Vec<(u32, Interval)>,
}

impl LoopRanges {
    /// No variable in scope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters a loop whose variable `var` ranges over `[0, extent)`.
    pub fn push(&mut self, var: u32, extent: i64) {
        self.vars.push((var, (0, extent - 1)));
    }

    /// Leaves the innermost loop.
    pub fn pop(&mut self) {
        self.vars.pop();
    }

    /// An interval containing every value `e` takes on the ranges.
    pub fn range(&self, e: &Expr) -> Interval {
        self.linear(e).range()
    }

    /// `e` with every operation the ranges decide folded, split
    /// quotients and remainders reduced, and sums ordered outermost loop
    /// first. Equal to `e` at every point of the ranges.
    pub fn simplify(&self, e: &Expr) -> Expr {
        self.linear(e).to_expr()
    }

    /// `c` folded to a constant when the ranges decide it, else with its
    /// operands simplified.
    pub fn simplify_cond(&self, c: &Cond) -> Folded {
        let (code, a, b) = match c {
            Cond::Ge(a, b) => (Code::Ge, a, b),
            Cond::Lt(a, b) => (Code::Lt, a, b),
            Cond::Eq(a, b) => (Code::Eq, a, b),
            Cond::And(l, r) => {
                return match (self.simplify_cond(l), self.simplify_cond(r)) {
                    (Folded::Never, _) | (_, Folded::Never) => Folded::Never,
                    (Folded::Always, x) | (x, Folded::Always) => x,
                    (Folded::Open(l), Folded::Open(r)) => Folded::Open(l.and(r)),
                }
            }
        };
        let (x, y) = (self.linear(a), self.linear(b));
        // Compare the difference against zero, so that variables both
        // sides share cancel before their ranges are summed.
        match interval(code, x.clone().plus(y.clone(), -1).range(), (0, 0)) {
            (1, 1) => Folded::Always,
            (0, 0) => Folded::Never,
            _ => {
                let (a, b) = (x.to_expr(), y.to_expr());
                Folded::Open(match code {
                    Code::Ge => Cond::Ge(a, b),
                    Code::Lt => Cond::Lt(a, b),
                    _ => Cond::Eq(a, b),
                })
            }
        }
    }

    /// The step `e` takes when variable `var` steps by one inside its
    /// range, if `e` is affine in `var` there (`e = base + s·var` with
    /// `base` free of `var`): `None` when `var` remains under a division,
    /// a modulo, a `min`, a `max` or a product with another variable.
    pub fn stride(&self, e: &Expr, var: u32) -> Option<i64> {
        let mut s = 0;
        for t in self.linear(e).terms {
            match &t.atom {
                Expr::Var(v) if v.id() == var => s = t.coef,
                atom if atom.uses_var(var) => return None,
                _ => {}
            }
        }
        Some(s)
    }

    /// Position (0 for the outermost loop) of the innermost loop over
    /// `id`.
    fn position(&self, id: u32) -> Option<usize> {
        self.vars.iter().rposition(|&(v, _)| v == id)
    }

    /// Depth (1 for the outermost loop) and range of a variable.
    fn lookup(&self, id: u32) -> (usize, Interval) {
        match self.position(id) {
            Some(k) => (k + 1, self.vars[k].1),
            None => (self.vars.len() + 1, ANY),
        }
    }

    fn linear(&self, e: &Expr) -> Linear {
        match e {
            Expr::Const(v) => Linear::constant(*v),
            Expr::Var(v) => {
                let (depth, range) = self.lookup(v.id());
                Linear::atom(e.clone(), range, depth)
            }
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.linear(a), self.linear(b));
                match op {
                    BinOp::Add => x.plus(y, 1),
                    BinOp::Sub => x.plus(y, -1),
                    BinOp::Mul => match (x.as_const(), y.as_const()) {
                        (_, Some(k)) => x.scale(k),
                        (Some(k), _) => y.scale(k),
                        _ => op_atom(*op, x, y),
                    },
                    BinOp::FloorDiv => match y.as_const() {
                        Some(d) if d > 0 => quotient(x, d),
                        _ => op_atom(*op, x, y),
                    },
                    BinOp::Mod => match y.as_const() {
                        Some(d) if d > 0 => remainder(x, d),
                        _ => op_atom(*op, x, y),
                    },
                    BinOp::Min | BinOp::Max => min_max(*op, x, y),
                }
            }
        }
    }
}

/// `coef · atom`, where the atom is a variable or an operation the rules
/// could not reduce further.
#[derive(Clone, Debug)]
struct Term {
    atom: Expr,
    coef: i64,
    /// Range of the atom (not of the term).
    range: Interval,
    /// Depth of the atom's innermost variable.
    depth: usize,
}

/// `c + Σ terms`, with no two terms on the same atom and no zero
/// coefficient.
#[derive(Clone, Debug)]
struct Linear {
    c: i64,
    terms: Vec<Term>,
}

impl Linear {
    fn constant(c: i64) -> Self {
        Self {
            c,
            terms: Vec::new(),
        }
    }

    fn atom(atom: Expr, range: Interval, depth: usize) -> Self {
        if range.0 == range.1 {
            return Self::constant(range.0);
        }
        Self {
            c: 0,
            terms: vec![Term {
                atom,
                coef: 1,
                range,
                depth,
            }],
        }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.c)
    }

    /// `self + sign · other`.
    fn plus(mut self, other: Linear, sign: i64) -> Self {
        self.c += sign * other.c;
        for t in other.terms {
            match self.terms.iter().position(|s| s.atom == t.atom) {
                Some(k) => self.terms[k].coef += sign * t.coef,
                None => self.terms.push(Term {
                    coef: sign * t.coef,
                    ..t
                }),
            }
        }
        self.terms.retain(|t| t.coef != 0);
        self
    }

    fn scale(mut self, k: i64) -> Self {
        if k == 0 {
            return Self::constant(0);
        }
        self.c *= k;
        for t in &mut self.terms {
            t.coef *= k;
        }
        self
    }

    fn range(&self) -> Interval {
        self.terms.iter().fold((self.c, self.c), |acc, t| {
            let (lo, hi) = (
                t.range.0.saturating_mul(t.coef),
                t.range.1.saturating_mul(t.coef),
            );
            interval(Code::Bin(BinOp::Add), acc, (lo.min(hi), lo.max(hi)))
        })
    }

    fn depth(&self) -> usize {
        self.terms.iter().map(|t| t.depth).max().unwrap_or(0)
    }

    /// `(x, y)` with `self = k·x + y`: `x` takes every term whose
    /// coefficient `k` divides and the constant's quotient, `y` the
    /// other terms and the constant's remainder.
    fn split(self, k: i64) -> (Self, Self) {
        let mut x = Self::constant(self.c.div_euclid(k));
        let mut y = Self::constant(self.c.rem_euclid(k));
        for t in self.terms {
            if t.coef % k == 0 {
                x.terms.push(Term {
                    coef: t.coef / k,
                    ..t
                });
            } else {
                y.terms.push(t);
            }
        }
        (x, y)
    }

    /// The sum as an expression: the constant, then the terms outermost
    /// first (source order within a depth).
    fn to_expr(&self) -> Expr {
        let mut order: Vec<&Term> = self.terms.iter().collect();
        order.sort_by_key(|t| t.depth);
        order.into_iter().fold(Expr::c(self.c), |acc, t| {
            let part = t.atom.mul_c(t.coef.abs());
            if t.coef > 0 {
                acc.add(&part)
            } else {
                acc.sub(&part)
            }
        })
    }
}

/// `x <op> y` as one atom, unless the shared rules fold it to a constant
/// or to an operand.
fn op_atom(op: BinOp, x: Linear, y: Linear) -> Linear {
    let code = Code::Bin(op);
    let (rx, ry) = (x.range(), y.range());
    let range = interval(code, rx, ry);
    if range.0 == range.1 {
        return Linear::constant(range.0);
    }
    match identity(code, rx, ry) {
        Some(Operand::Left) => x,
        Some(Operand::Right) => y,
        None => {
            let depth = x.depth().max(y.depth());
            let e = Expr::Bin(op, Arc::new(x.to_expr()), Arc::new(y.to_expr()));
            Linear::atom(e, range, depth)
        }
    }
}

/// `min` or `max`, decided by the range of `x − y` where possible.
fn min_max(op: BinOp, x: Linear, y: Linear) -> Linear {
    let d = x.clone().plus(y.clone(), -1).range();
    match op {
        BinOp::Min if d.1 <= 0 => x,
        BinOp::Min if d.0 >= 0 => y,
        BinOp::Max if d.0 >= 0 => x,
        BinOp::Max if d.1 <= 0 => y,
        _ => op_atom(op, x, y),
    }
}

/// `⌊x / d⌋` for `d > 0`.
fn quotient(x: Linear, d: i64) -> Linear {
    // (d·q + r) / d = q + r / d for every integer r.
    let (q, r) = x.split(d);
    let (lo, hi) = r.range();
    if let Some(s) = same_block(lo, hi, d) {
        return q.plus(Linear::constant(s), 1);
    }
    for k in split_factors(&r, d) {
        if let Some(x) = split_below(&r, k) {
            // (k·x + y) / (k·m) = x / m when 0 ≤ y < k.
            return q.plus(quotient(x, d / k), 1);
        }
    }
    q.plus(op_atom(BinOp::FloorDiv, r, Linear::constant(d)), 1)
}

/// `x mod d` for `d > 0`.
fn remainder(x: Linear, d: i64) -> Linear {
    // (d·q + r) mod d = r mod d for every integer r.
    let (_, r) = x.split(d);
    let (lo, hi) = r.range();
    if let Some(base) = same_block(lo, hi, d).and_then(|s| s.checked_mul(d)) {
        return r.plus(Linear::constant(base), -1);
    }
    for k in split_factors(&r, d) {
        if let Some(x) = split_below(&r, k) {
            // (k·x + y) mod (k·m) = k·(x mod m) + y when 0 ≤ y < k.
            let y = r.clone().plus(x.clone().scale(k), -1);
            return remainder(x, d / k).scale(k).plus(y, 1);
        }
    }
    op_atom(BinOp::Mod, r, Linear::constant(d))
}

/// Candidate split factors of `r` against the divisor `d`: the gcds of
/// the terms' coefficient pairs (a coefficient is its own pair) that
/// properly divide `d`, largest first.
fn split_factors(r: &Linear, d: i64) -> Vec<i64> {
    let coefs: Vec<i64> = r.terms.iter().map(|t| t.coef.abs()).collect();
    let mut ks: Vec<i64> = coefs
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| coefs[i..].iter().map(move |&b| gcd(a, b)))
        .filter(|&k| k > 1 && k < d && d % k == 0)
        .collect();
    ks.sort_unstable_by(|a, b| b.cmp(a));
    ks.dedup();
    ks
}

/// `x` with `r = k·x + y` and `0 ≤ y < k` on the ranges, if the split of
/// `r` by `k` leaves a rest `y` whose range fits one block of `k` (a
/// rest in `[s·k, s·k + k)` moves `s` into `x`).
fn split_below(r: &Linear, k: i64) -> Option<Linear> {
    let (x, y) = r.clone().split(k);
    let (lo, hi) = y.range();
    let s = same_block(lo, hi, k)?;
    Some(x.plus(Linear::constant(s), 1))
}

/// `s` when every value of `[lo, hi]` lies in `[s·d, s·d + d)`.
fn same_block(lo: i64, hi: i64, d: i64) -> Option<i64> {
    let s = lo.div_euclid(d);
    (hi.div_euclid(d) == s).then_some(s)
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `slots[dst] = slots[a] <code> slots[b]`: one op of a compiled loop
/// nest.
#[derive(Clone, Copy, Debug)]
pub struct SlotOp {
    /// The operation.
    pub code: Code,
    /// The left operand's slot.
    pub a: u32,
    /// The right operand's slot.
    pub b: u32,
    /// The result's slot.
    pub dst: u32,
}

/// Runs `ops` in order over the slot file `slots`.
#[inline]
pub fn run(ops: &[SlotOp], slots: &mut [i64]) {
    for op in ops {
        slots[op.dst as usize] = op.code.apply(slots[op.a as usize], slots[op.b as usize]);
    }
}

/// Compiles index expressions and conditions over a loop nest into
/// [`SlotOp`]s on a flat `i64` slot file.
///
/// Each open loop's variable, each constant and each op result has one
/// slot. An op is placed at the loop of its deeper operand, or at the
/// root when it uses no variable, so it reruns only when that loop's
/// variable steps: a caller runs the root ops once, then a loop's ops
/// each time it sets the loop's variable slot. Equal ops share one slot
/// while it is live, and every op is folded by [`interval`] and
/// [`identity`] over its operands' ranges, so where the loops' ranges
/// decide an op a constant or an operand takes its place. Conditions
/// compile to 0/1 slots, and `And` to the `min` of its sides.
#[derive(Debug, Default)]
pub struct SlotCompiler {
    /// The open loops' variables and ranges, outermost first.
    ranges: LoopRanges,
    /// Per open loop, its variable's slot and the ops placed at it.
    loops: Vec<(u32, Vec<SlotOp>)>,
    /// The ops placed at no loop.
    root: Vec<SlotOp>,
    /// Per slot: its initial value, its level (0 for the root, `k` for
    /// the `k`-th open loop) and the interval of values it takes while
    /// every variable lies in its range.
    init: Vec<i64>,
    level: Vec<usize>,
    range: Vec<Interval>,
    consts: HashMap<i64, u32>,
    /// One slot per distinct live `(code, a, b)`.
    interned: HashMap<(Code, u32, u32), u32>,
}

impl SlotCompiler {
    /// No loop open and no slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a loop whose variable `var` ranges over `[0, extent)` and
    /// returns the slot the loop sets to its variable's value. Slots are
    /// numbered in creation order, so the loops opened first in a new
    /// compiler take slots `0, 1, …`.
    pub fn push_loop(&mut self, var: u32, extent: i64) -> u32 {
        self.ranges.push(var, extent);
        let slot = self.push_slot(0, self.loops.len() + 1, (0, extent - 1));
        self.loops.push((slot, Vec::new()));
        slot
    }

    /// Closes the innermost loop and returns the ops placed at it. They
    /// are shared no longer: outside the loop their slots go stale.
    pub fn pop_loop(&mut self) -> Vec<SlotOp> {
        self.ranges.pop();
        let ops = self.loops.pop().map(|(_, ops)| ops).unwrap_or_default();
        for op in &ops {
            self.interned.remove(&(op.code, op.a, op.b));
        }
        ops
    }

    /// Takes the ops placed at no loop since the last call. They stay
    /// shared, so a caller runs them before anything that reads them and
    /// keeps its slot file.
    pub fn take_root(&mut self) -> Vec<SlotOp> {
        std::mem::take(&mut self.root)
    }

    /// The ranges of the open loops' variables.
    pub fn ranges(&self) -> &LoopRanges {
        &self.ranges
    }

    /// The initial slot file: constants hold their values, variables and
    /// op results zero.
    pub fn init(&self) -> Vec<i64> {
        self.init.clone()
    }

    /// Whether slot `s` holds `v` at every point of the open loops.
    pub fn is_const(&self, s: u32, v: i64) -> bool {
        self.range[s as usize] == (v, v)
    }

    /// The slot holding the constant `v`.
    pub fn constant(&mut self, v: i64) -> u32 {
        if let Some(&s) = self.consts.get(&v) {
            return s;
        }
        let s = self.push_slot(v, 0, (v, v));
        self.consts.insert(v, s);
        s
    }

    /// The slot holding `a <code> b`: a constant or an operand where the
    /// operands' intervals decide it, else the live op computing it, else
    /// a new op placed at the deeper operand's loop.
    pub fn op(&mut self, code: Code, a: u32, b: u32) -> u32 {
        let (x, y) = (self.range[a as usize], self.range[b as usize]);
        let r = interval(code, x, y);
        if r.0 == r.1 {
            return self.constant(r.0);
        }
        match identity(code, x, y) {
            Some(Operand::Left) => return a,
            Some(Operand::Right) => return b,
            None => {}
        }
        if let Some(&s) = self.interned.get(&(code, a, b)) {
            return s;
        }
        let level = self.level[a as usize].max(self.level[b as usize]);
        let dst = self.push_slot(0, level, r);
        let op = SlotOp { code, a, b, dst };
        match level.checked_sub(1) {
            Some(k) => self.loops[k].1.push(op),
            None => self.root.push(op),
        }
        self.interned.insert((code, a, b), dst);
        dst
    }

    /// The slot holding `e`; `None` when `e` uses a variable that no open
    /// loop binds.
    pub fn expr(&mut self, e: &Expr) -> Option<u32> {
        match e {
            Expr::Const(v) => Some(self.constant(*v)),
            Expr::Var(v) => Some(self.loops[self.ranges.position(v.id())?].0),
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.expr(a)?, self.expr(b)?);
                Some(self.op(Code::Bin(*op), x, y))
            }
        }
    }

    /// The slot holding 1 where `c` holds and 0 elsewhere; `None` as for
    /// [`SlotCompiler::expr`].
    pub fn cond(&mut self, c: &Cond) -> Option<u32> {
        let (code, a, b) = match c {
            Cond::Ge(a, b) => (Code::Ge, a, b),
            Cond::Lt(a, b) => (Code::Lt, a, b),
            Cond::Eq(a, b) => (Code::Eq, a, b),
            Cond::And(l, r) => {
                let (x, y) = (self.cond(l)?, self.cond(r)?);
                return Some(self.op(Code::Bin(BinOp::Min), x, y));
            }
        };
        let (x, y) = (self.expr(a)?, self.expr(b)?);
        Some(self.op(code, x, y))
    }

    /// `terms` combined by `code`, outermost level first, so that every
    /// partial result over outer variables is placed at an outer loop;
    /// the constant `empty` when there is no term.
    pub fn fold(&mut self, code: BinOp, mut terms: Vec<u32>, empty: i64) -> u32 {
        terms.sort_by_key(|&s| self.level[s as usize]);
        let mut it = terms.into_iter();
        let Some(first) = it.next() else {
            return self.constant(empty);
        };
        it.fold(first, |acc, t| self.op(Code::Bin(code), acc, t))
    }

    fn push_slot(&mut self, init: i64, level: usize, range: Interval) -> u32 {
        self.init.push(init);
        self.level.push(level);
        self.range.push(range);
        (self.init.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Var;

    fn var(id: u32) -> Expr {
        Expr::v(&Var::new(id, format!("v{id}")))
    }

    #[test]
    fn split_quotient_and_remainder_reduce() {
        // o ranges over [0, 8), i over [0, 2): the C2D weight's
        // `(o·2 + i) / 16` is 0 and `(o·2 + i) mod 16` is `o·2 + i`.
        let mut r = LoopRanges::new();
        r.push(0, 8);
        r.push(1, 2);
        let fused = var(0).mul_c(2).add(&var(1));
        assert_eq!(r.simplify(&fused.div_c(16)), Expr::c(0));
        assert_eq!(r.simplify(&fused.mod_c(16)), fused);
        // Over [0, 32) the quotient needs the outer variable alone.
        let mut r = LoopRanges::new();
        r.push(0, 32);
        r.push(1, 2);
        assert_eq!(r.simplify(&fused.div_c(16)), var(0).div_c(8));
        assert_eq!(
            r.simplify(&fused.mod_c(16)),
            var(0).mod_c(8).mul_c(2).add(&var(1))
        );
    }

    #[test]
    fn sums_are_ordered_outermost_first() {
        let mut r = LoopRanges::new();
        r.push(0, 4);
        r.push(1, 4);
        r.push(2, 4);
        let e = var(2).add(&var(0).mul_c(16)).add(&var(1).mul_c(4)).add_c(3);
        let want = Expr::c(3)
            .add(&var(0).mul_c(16))
            .add(&var(1).mul_c(4))
            .add(&var(2));
        assert_eq!(r.simplify(&e), want);
    }

    #[test]
    fn bounds_checks_fold() {
        let mut r = LoopRanges::new();
        r.push(0, 10);
        r.push(1, 3);
        let h = var(0).add(&var(1)).add_c(-1);
        let always = Cond::Ge(var(0).add(&var(1)), Expr::c(0))
            .and(Cond::Lt(var(0).add(&var(1)), Expr::c(12)));
        assert!(matches!(r.simplify_cond(&always), Folded::Always));
        assert!(matches!(
            r.simplify_cond(&Cond::Lt(h.clone(), Expr::c(-1))),
            Folded::Never
        ));
        assert!(matches!(
            r.simplify_cond(&Cond::Ge(h, Expr::c(0))),
            Folded::Open(_)
        ));
        // `min(e / m, 0)` is 0 for a non-negative `e`.
        assert_eq!(r.simplify(&var(0).div_c(4).min_e(&Expr::c(0))), Expr::c(0));
    }
}
