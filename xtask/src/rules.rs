//! The four lock-discipline lint rules, evaluated over a lexed file.
//!
//! Each checker emits *candidate* findings; the caller (`lib.rs`) then
//! resolves `// lint: allow(<rule>): <reason>` directives, turning
//! justified findings into recorded exemptions and unjustified ones into
//! violations.

use crate::lexer::{Lexed, Tok, TokKind};

/// The lint rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1 — `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`:
    /// use the poison-recovery idiom (`unwrap_or_else(PoisonError::
    /// into_inner)`) or the fail-fast `.expect("...")` with a message.
    LockUnwrap,
    /// L2 — a wetlab/decode entry point invoked while a lock guard binding
    /// is still live in the enclosing scope.
    WetlabUnderLock,
    /// L3 — a `Mutex`/`RwLock` field in `dna-core` without a
    /// `// lock-rank:` annotation consistent with the documented hierarchy.
    LockRank,
    /// L4 — wall-clock (`Instant::now`/`SystemTime`) or ambient RNG
    /// construction in the deterministic commit/epoch paths.
    Determinism,
}

impl Rule {
    /// Short code used in diagnostics (`L1`…`L4`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::LockUnwrap => "L1",
            Rule::WetlabUnderLock => "L2",
            Rule::LockRank => "L3",
            Rule::Determinism => "L4",
        }
    }

    /// Key used in `// lint: allow(<key>)` directives and JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            Rule::LockUnwrap => "lock-unwrap",
            Rule::WetlabUnderLock => "wetlab-under-lock",
            Rule::LockRank => "lock-rank",
            Rule::Determinism => "determinism",
        }
    }

    /// All rules, in catalog order.
    pub fn all() -> [Rule; 4] {
        [
            Rule::LockUnwrap,
            Rule::WetlabUnderLock,
            Rule::LockRank,
            Rule::Determinism,
        ]
    }
}

/// One candidate finding: a rule fired at a file line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Whether rule `L3` applies to this (effective) file path.
pub fn in_core(path: &str) -> bool {
    path.starts_with("crates/core/src")
}

/// Whether rule `L4` applies to this (effective) file path: the
/// commit/epoch paths live in the core store and the wetlab simulator,
/// both of which must replay deterministically from a seed.
pub fn in_deterministic_scope(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/sim/src")
}

// ----- L1: lock().unwrap() ------------------------------------------------

/// Find `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`.
pub fn check_lock_unwrap(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if !(m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")) {
            continue;
        }
        let pat = [
            toks.get(i + 2).map(|t| t.is_punct('(')).unwrap_or(false),
            toks.get(i + 3).map(|t| t.is_punct(')')).unwrap_or(false),
            toks.get(i + 4).map(|t| t.is_punct('.')).unwrap_or(false),
            toks.get(i + 5)
                .map(|t| t.is_ident("unwrap"))
                .unwrap_or(false),
            toks.get(i + 6).map(|t| t.is_punct('(')).unwrap_or(false),
            toks.get(i + 7).map(|t| t.is_punct(')')).unwrap_or(false),
        ];
        if pat.iter().all(|&p| p) {
            out.push(Finding {
                rule: Rule::LockUnwrap,
                line: m.line,
                message: format!(
                    ".{}().unwrap() discards the poison state: recover with \
                     `.unwrap_or_else(PoisonError::into_inner)` or fail fast with \
                     `.expect(\"<which lock>\")`",
                    m.text
                ),
            });
        }
    }
    out
}

// ----- L2: wetlab entry point under a live guard --------------------------

/// Wetlab/decode entry points that must never run inside a critical
/// section (the snapshot → wetlab → validate-and-commit protocol).
const WETLAB: &[&str] = &[
    "amplify",
    "sequence",
    "run",
    "mix_in",
    "synthesize",
    "synthesize_rewrites",
    "execute_round",
];

fn is_wetlab_name(name: &str) -> bool {
    WETLAB.contains(&name) || name.starts_with("decode_jobs_parallel")
}

/// Tokens that acquire a lock guard when they appear (at top brace level)
/// in a `let` initializer: std lock methods plus the repo's own locking
/// helpers. Helpers that merely *clone a cell handle* (`shard_cell`,
/// `log_cell`) are deliberately absent.
const ACQUIRERS: &[&str] = &["lock_shard", "lock_front", "lock_sched", "dir_read"];

/// Closure that flags a wetlab call at a token index against live guards.
type WetlabCheck<'a> = dyn Fn(&[Tok], usize, &[GuardBinding], &mut Vec<Finding>) + 'a;

#[derive(Debug)]
struct GuardBinding {
    names: Vec<String>,
    depth: usize,
    line: u32,
}

/// Find wetlab/decode calls made while a lock-guard `let` binding is live.
///
/// Guard detection is a heuristic over the token stream:
/// - a `let` whose type annotation names a `*MutexGuard` / `*RwLock*Guard`
///   type, or whose initializer (at top brace level — nested `{…}` block
///   expressions are treated as self-contained scopes) calls `.lock(` /
///   `.read(` / `.write(` or one of the repo's locking helpers, binds a
///   guard;
/// - the guard dies at `drop(name)` or when its enclosing brace scope
///   closes.
///
/// Known blind spot (documented): a guard bound *inside* a `let`'s
/// block-expression initializer is scoped to that block and not tracked —
/// in this codebase those blocks only take snapshots.
pub fn check_wetlab_under_lock(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut depth: usize = 0;
    let mut guards: Vec<GuardBinding> = Vec::new();
    let mut i = 0usize;

    // Flag `toks[j]` if it is a wetlab call site and a guard is live.
    let wetlab_at = |toks: &[Tok], j: usize, guards: &[GuardBinding], out: &mut Vec<Finding>| {
        let t = &toks[j];
        if t.kind != TokKind::Ident || !is_wetlab_name(&t.text) {
            return;
        }
        if !toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
            return;
        }
        if j > 0 && toks[j - 1].is_ident("fn") {
            return; // definition, not a call
        }
        if let Some(g) = guards.last() {
            out.push(Finding {
                rule: Rule::WetlabUnderLock,
                line: t.line,
                message: format!(
                    "wetlab/decode entry point `{}` invoked while the lock guard bound at \
                     line {} is still live — run it against a snapshot outside the critical \
                     section (snapshot → wetlab → validate-and-commit)",
                    t.text, g.line
                ),
            });
        }
    };

    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            // `drop(name)` releases that binding early.
            TokKind::Ident
                if t.text == "drop"
                    && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.is_punct(')')).unwrap_or(false) =>
            {
                if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                    for g in &mut guards {
                        g.names.retain(|n| n != &name.text);
                    }
                    guards.retain(|g| !g.names.is_empty());
                }
            }
            TokKind::Ident if t.text == "let" => {
                // `if let` / `while let` initializers end at the block `{`
                // and their bindings live inside that block.
                let conditional =
                    i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                let (next_i, binding) =
                    parse_let(toks, i, depth, conditional, &wetlab_at, &guards, &mut out);
                if let Some(b) = binding {
                    guards.push(b);
                }
                i = next_i;
                continue;
            }
            _ => {}
        }
        wetlab_at(toks, i, &guards, &mut out);
        i += 1;
    }
    out
}

/// Parse a `let` statement starting at `toks[let_idx]`; returns the index
/// to resume the main walk at (just past the terminating `;`, or at the
/// block `{` for a conditional `if let`/`while let`) and the guard
/// binding, if this `let` binds one. Wetlab calls inside the initializer
/// are checked against the already-live guards as we go.
fn parse_let(
    toks: &[Tok],
    let_idx: usize,
    depth: usize,
    conditional: bool,
    wetlab_at: &WetlabCheck<'_>,
    live: &[GuardBinding],
    out: &mut Vec<Finding>,
) -> (usize, Option<GuardBinding>) {
    let line = toks[let_idx].line;
    let mut i = let_idx + 1;
    // Pattern: idents until `:` (type) or `=` (init) at paren depth 0.
    let mut names = Vec::new();
    let mut paren = 0usize;
    let mut has_type = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren = paren.saturating_sub(1),
            TokKind::Punct(':') if paren == 0 => {
                has_type = true;
                i += 1;
                break;
            }
            TokKind::Punct('=') if paren == 0 => {
                i += 1;
                break;
            }
            TokKind::Punct(';') if paren == 0 => {
                // `let x;` — no initializer, no guard.
                return (i + 1, None);
            }
            TokKind::Ident if t.text != "mut" && t.text != "ref" && t.text != "_" => {
                names.push(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    // Optional type annotation: until `=` at angle/paren depth 0.
    let mut guard_type = false;
    if has_type {
        let mut angle = 0usize;
        let mut paren = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            match t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = angle.saturating_sub(1),
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren = paren.saturating_sub(1),
                TokKind::Punct('=') if angle == 0 && paren == 0 => {
                    i += 1;
                    break;
                }
                TokKind::Punct(';') if angle == 0 && paren == 0 => {
                    return (i + 1, None);
                }
                TokKind::Ident
                    if t.text.contains("MutexGuard")
                        || t.text.contains("RwLockReadGuard")
                        || t.text.contains("RwLockWriteGuard") =>
                {
                    guard_type = true;
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Initializer: until `;` with all delimiters balanced. Acquisition
    // tokens count only at top brace level (nested block expressions keep
    // their guards to themselves); wetlab calls are checked at any depth.
    let mut brace = 0usize;
    let mut paren = 0usize;
    let mut bracket = 0usize;
    let mut acquires = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') if conditional && brace == 0 && paren == 0 && bracket == 0 => {
                // The conditional's block: stop here and let the main
                // walker count it, so the binding scopes to the block.
                break;
            }
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace = brace.saturating_sub(1),
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren = paren.saturating_sub(1),
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket = bracket.saturating_sub(1),
            TokKind::Punct(';') if brace == 0 && paren == 0 && bracket == 0 => {
                i += 1;
                break;
            }
            TokKind::Ident if brace == 0 => {
                let called = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
                if called {
                    let dotted = i > 0 && toks[i - 1].is_punct('.');
                    if (dotted && (t.text == "lock" || t.text == "read" || t.text == "write"))
                        || ACQUIRERS.contains(&t.text.as_str())
                    {
                        acquires = true;
                    }
                }
            }
            _ => {}
        }
        wetlab_at(toks, i, live, out);
        i += 1;
    }
    let binding = if guard_type || acquires {
        Some(GuardBinding {
            names,
            // A conditional binding lives inside the block that follows.
            depth: if conditional { depth + 1 } else { depth },
            line,
        })
    } else {
        None
    };
    (i, binding)
}

// ----- L3: lock-rank annotations on dna-core lock fields ------------------

/// The documented hierarchy, as an ordinal for declaration-order checks.
/// `None` means the expression is not part of the hierarchy.
fn rank_ordinal(expr: &str) -> Option<u64> {
    match expr {
        "2+pid" | "2 + pid" => Some(2),
        "log" => Some(1_000_000),
        "front" => Some(1_000_001),
        "sched" => Some(1_000_002),
        "journal" => Some(1_000_003),
        n => n.parse::<u64>().ok().filter(|&v| v < 1_000_000),
    }
}

/// Find `Mutex`/`RwLock` struct fields in core without a consistent
/// `// lock-rank:` annotation. The annotation must sit on the field's own
/// line or a comment line between it and the previous field; accepted
/// expressions are an integer, `2+pid`, `log`, `front`, `sched`,
/// `journal` — and the ordinals must be non-decreasing in declaration
/// order (fields are acquired top-down in the documented hierarchy).
///
/// A `// lint: allow(lock-rank): <reason>` directive in the same window
/// exempts a field whose rank genuinely is a runtime parameter (the
/// ranked wrappers themselves).
pub fn check_lock_rank(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Find the struct body `{` (angle-balanced scan); `;` or `(` first
        // means a unit/tuple struct — no named fields to annotate.
        let mut j = i + 1;
        let mut angle = 0usize;
        let body_start = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => angle = angle.saturating_sub(1),
                Some(t) if t.is_punct('{') && angle == 0 => break Some(j + 1),
                Some(t) if (t.is_punct(';') || t.is_punct('(')) && angle == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(mut k) = body_start else {
            i = j.max(i + 1);
            continue;
        };
        // Walk the fields. `prev_line` bounds the comment window a field's
        // annotation may occupy (everything after the previous field).
        let mut prev_line = toks[i].line;
        let mut prev_ordinal: Option<u64> = None;
        let mut field_depth = 0usize; // nesting inside a field's type/default
        while k < toks.len() {
            let t = &toks[k];
            if field_depth == 0 && t.is_punct('}') {
                break; // end of struct body
            }
            // Skip attributes: `#[ … ]`.
            if t.is_punct('#') && toks.get(k + 1).map(|n| n.is_punct('[')).unwrap_or(false) {
                let mut b = 0usize;
                k += 1;
                while k < toks.len() {
                    if toks[k].is_punct('[') {
                        b += 1;
                    } else if toks[k].is_punct(']') {
                        b -= 1;
                        if b == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
                continue;
            }
            // Field: `[pub [(…)]] name : type ,`
            if t.kind == TokKind::Ident && t.text != "pub" {
                let name_line = t.line;
                let name = t.text.clone();
                // Require `name :` (skip visibility parens which were
                // consumed as idents/puncts before this).
                let colon = toks.get(k + 1).map(|n| n.is_punct(':')).unwrap_or(false);
                if colon {
                    // Type span: to `,` or the body `}` at all-zero depth.
                    let mut m = k + 2;
                    let mut angle = 0usize;
                    let mut paren = 0usize;
                    let mut bracket = 0usize;
                    let mut is_lock = false;
                    while m < toks.len() {
                        let tt = &toks[m];
                        match tt.kind {
                            TokKind::Punct('<') => angle += 1,
                            TokKind::Punct('>') => angle = angle.saturating_sub(1),
                            TokKind::Punct('(') => paren += 1,
                            TokKind::Punct(')') => paren = paren.saturating_sub(1),
                            TokKind::Punct('[') => bracket += 1,
                            TokKind::Punct(']') => bracket = bracket.saturating_sub(1),
                            TokKind::Punct(',') if angle == 0 && paren == 0 && bracket == 0 => {
                                break;
                            }
                            TokKind::Punct('}') if angle == 0 && paren == 0 && bracket == 0 => {
                                break;
                            }
                            TokKind::Ident
                                if (tt.text == "Mutex"
                                    || tt.text == "RwLock"
                                    || tt.text == "RankedMutex"
                                    || tt.text == "RankedRwLock")
                                    && toks
                                        .get(m + 1)
                                        .map(|n| n.is_punct('<'))
                                        .unwrap_or(false) =>
                            {
                                is_lock = true;
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    if is_lock {
                        // Look for the annotation in (prev_line, name_line].
                        // (`lint: allow(lock-rank)` directives are resolved
                        // by the generic pass, like every other rule.)
                        let window_lo = prev_line.saturating_add(1).min(name_line);
                        let mut rank_expr: Option<String> = None;
                        for c in lexed.comments_in(window_lo, name_line) {
                            if let Some(expr) = c.text.strip_prefix("lock-rank:") {
                                rank_expr = Some(expr.trim().to_string());
                            }
                        }
                        {
                            match rank_expr.as_deref().map(rank_ordinal) {
                                None => out.push(Finding {
                                    rule: Rule::LockRank,
                                    line: name_line,
                                    message: format!(
                                        "lock field `{name}` has no `// lock-rank:` annotation \
                                         (hierarchy: directory=0, alloc=1, shard=2+pid, log, \
                                         front, sched)"
                                    ),
                                }),
                                Some(None) => out.push(Finding {
                                    rule: Rule::LockRank,
                                    line: name_line,
                                    message: format!(
                                        "lock field `{name}` has an unrecognized lock-rank \
                                         expression `{}` (expected an integer, `2+pid`, `log`, \
                                         `front` or `sched`)",
                                        rank_expr.unwrap_or_default()
                                    ),
                                }),
                                Some(Some(ord)) => {
                                    if let Some(prev) = prev_ordinal {
                                        if ord < prev {
                                            out.push(Finding {
                                                rule: Rule::LockRank,
                                                line: name_line,
                                                message: format!(
                                                    "lock field `{name}` is ranked below the \
                                                     preceding lock field — declaration order \
                                                     must follow the documented hierarchy \
                                                     (directory=0, alloc=1, shard=2+pid, log, \
                                                     front, sched)"
                                                ),
                                            });
                                        }
                                    }
                                    prev_ordinal = Some(ord);
                                }
                            }
                        }
                    }
                    prev_line = toks.get(m).map(|tt| tt.line).unwrap_or(name_line);
                    k = m + 1;
                    continue;
                }
            }
            if t.is_punct('{') {
                field_depth += 1;
            } else if t.is_punct('}') {
                field_depth = field_depth.saturating_sub(1);
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

// ----- L4: determinism guard ----------------------------------------------

/// Find wall-clock and ambient-RNG construction in the deterministic
/// scope (`crates/core/src`, `crates/sim/src`): `Instant::now`,
/// `SystemTime`, `thread_rng`, `from_entropy`. The replay tests depend on
/// the commit/epoch paths being a pure function of the seed.
pub fn check_determinism(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "Instant" => {
                toks.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
                    && toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.is_ident("now")).unwrap_or(false)
            }
            "SystemTime" | "thread_rng" | "from_entropy" => true,
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: Rule::Determinism,
                line: t.line,
                message: format!(
                    "`{}` in the deterministic commit/epoch scope — derive all randomness \
                     and ordering from the store seed (DetRng) so replay tests stay exact",
                    if t.text == "Instant" {
                        "Instant::now"
                    } else {
                        &t.text
                    }
                ),
            });
        }
    }
    out
}
