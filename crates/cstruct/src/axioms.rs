//! Executable forms of the c-struct axioms CS0–CS4.
//!
//! These checkers are used by the property-based test suites of every
//! [`CStruct`] implementation, and are exported so downstream crates can
//! validate their own command types. Each function panics with a
//! descriptive message on violation, making proptest shrinking output
//! readable.

use crate::traits::CStruct;

/// CS2 (partial order): checks reflexivity, antisymmetry and transitivity
/// of `⊑` over the given triple.
pub fn check_partial_order<C: CStruct>(a: &C, b: &C, c: &C) {
    assert!(a.le(a), "CS2 reflexivity violated: {a:?}");
    if a.le(b) && b.le(a) {
        assert_eq!(a, b, "CS2 antisymmetry violated: {a:?} vs {b:?}");
    }
    if a.le(b) && b.le(c) {
        assert!(
            a.le(c),
            "CS2 transitivity violated: {a:?} ⊑ {b:?} ⊑ {c:?} but not {a:?} ⊑ {c:?}"
        );
    }
}

/// Bottom is the least element and appending extends (consequences of CS1
/// and the definition of `⊑`).
pub fn check_bottom_and_append<C: CStruct>(a: &C, cmd: &C::Cmd) {
    assert!(
        C::bottom().le(a),
        "⊥ must be a lower bound of every c-struct: {a:?}"
    );
    let ext = a.appended(cmd);
    assert!(
        a.le(&ext),
        "v ⊑ v • C violated: {a:?} not ⊑ {ext:?} (appended {cmd:?})"
    );
    // Either C was incorporated, or the append was absorbed (v • C = v, as
    // in the consensus c-struct where the first command sticks; Lamport's
    // formal `Contains` counts absorbed commands as contained).
    assert!(
        ext.contains(cmd) || ext == *a,
        "v • C must contain C or absorb it: {ext:?} lacks {cmd:?}"
    );
    // An overridden `absorbs` answers exactly what the default would.
    assert_eq!(
        a.absorbs(cmd),
        a.contains(cmd) || ext == *a,
        "absorbs disagrees with v • C = v: {a:?}, {cmd:?}"
    );
}

/// `absorbs` is upward-closed: `a ⊑ b` and `a` absorbing `cmd` imply `b`
/// absorbs `cmd`. (So a glb absorbs only what each of its operands does.)
pub fn check_absorbs_upward_closed<C: CStruct>(a: &C, b: &C, cmd: &C::Cmd) {
    if a.le(b) && a.absorbs(cmd) {
        assert!(
            b.absorbs(cmd),
            "absorbs not upward-closed: {a:?} ⊑ {b:?} absorbs {cmd:?}, the extension does not"
        );
    }
}

/// CS3 (glb): `a ⊓ b` is a lower bound of `{a, b}` and is greater than any
/// lower bound in `candidates`.
pub fn check_glb<C: CStruct>(a: &C, b: &C, candidates: &[C]) {
    let g = a.glb(b);
    assert!(g.le(a), "glb not a lower bound: {g:?} not ⊑ {a:?}");
    assert!(g.le(b), "glb not a lower bound: {g:?} not ⊑ {b:?}");
    for w in candidates {
        if w.le(a) && w.le(b) {
            assert!(
                w.le(&g),
                "glb not greatest: lower bound {w:?} not ⊑ {g:?} (a={a:?}, b={b:?})"
            );
        }
    }
}

/// CS3 (lub): if `a` and `b` are compatible, `a ⊔ b` is an upper bound and
/// is below any upper bound in `candidates`; if they are incompatible no
/// candidate may be an upper bound of both.
pub fn check_lub<C: CStruct>(a: &C, b: &C, candidates: &[C]) {
    match a.lub(b) {
        Some(l) => {
            assert!(a.le(&l), "lub not an upper bound: {a:?} not ⊑ {l:?}");
            assert!(b.le(&l), "lub not an upper bound: {b:?} not ⊑ {l:?}");
            for w in candidates {
                if a.le(w) && b.le(w) {
                    assert!(
                        l.le(w),
                        "lub not least: {l:?} not ⊑ upper bound {w:?} (a={a:?}, b={b:?})"
                    );
                }
            }
        }
        None => {
            for w in candidates {
                assert!(
                    !(a.le(w) && b.le(w)),
                    "incompatible pair has common upper bound {w:?}: a={a:?}, b={b:?}"
                );
            }
        }
    }
}

/// Compatibility must be symmetric and agree with `lub` existence.
pub fn check_compatibility_consistency<C: CStruct>(a: &C, b: &C) {
    assert_eq!(
        a.compatible(b),
        b.compatible(a),
        "compatibility not symmetric: {a:?} vs {b:?}"
    );
    assert_eq!(
        a.compatible(b),
        a.lub(b).is_some(),
        "compatible() disagrees with lub(): {a:?} vs {b:?}"
    );
}

/// CS4: for compatible `a`, `b` both containing `cmd`, `a ⊓ b` contains
/// `cmd`.
pub fn check_cs4<C: CStruct>(a: &C, b: &C, cmd: &C::Cmd) {
    if a.compatible(b) && a.contains(cmd) && b.contains(cmd) {
        assert!(
            a.glb(b).contains(cmd),
            "CS4 violated: glb of {a:?} and {b:?} lacks common command {cmd:?}"
        );
    }
}

/// glb/lub must relate to `⊑` in the standard lattice way:
/// `a ⊑ b ⟺ a ⊓ b = a ⟺ a ⊔ b = b`.
pub fn check_lattice_consistency<C: CStruct>(a: &C, b: &C) {
    if a.le(b) {
        assert_eq!(&a.glb(b), a, "a ⊑ b but a ⊓ b ≠ a: {a:?}, {b:?}");
        assert_eq!(
            a.lub(b).as_ref(),
            Some(b),
            "a ⊑ b but a ⊔ b ≠ b: {a:?}, {b:?}"
        );
    }
    // glb is commutative (as a poset element, via antisymmetry).
    let g1 = a.glb(b);
    let g2 = b.glb(a);
    assert!(
        g1.le(&g2) && g2.le(&g1),
        "glb not commutative: {g1:?} vs {g2:?}"
    );
}

/// Runs every axiom check over a triple of c-structs and a command.
pub fn check_all<C: CStruct>(a: &C, b: &C, c: &C, cmd: &C::Cmd) {
    let candidates = [a.clone(), b.clone(), c.clone(), C::bottom()];
    check_partial_order(a, b, c);
    check_bottom_and_append(a, cmd);
    check_absorbs_upward_closed(a, b, cmd);
    check_absorbs_upward_closed(b, a, cmd);
    // The form the coordinator relies on: the glb lies below both.
    let g = a.glb(b);
    check_absorbs_upward_closed(&g, a, cmd);
    check_absorbs_upward_closed(&g, b, cmd);
    check_glb(a, b, &candidates);
    check_lub(a, b, &candidates);
    check_compatibility_consistency(a, b);
    check_cs4(a, b, cmd);
    check_lattice_consistency(a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmdSeq, CmdSet, SingleDecree};

    #[test]
    fn single_decree_passes_axioms() {
        let vals: Vec<SingleDecree<u32>> = vec![
            SingleDecree::bottom(),
            SingleDecree::decided(1),
            SingleDecree::decided(2),
        ];
        for a in &vals {
            for b in &vals {
                for c in &vals {
                    check_all(a, b, c, &1u32);
                    check_all(a, b, c, &2u32);
                }
            }
        }
    }

    #[test]
    fn cmdset_passes_axioms() {
        let mk = |v: &[u32]| -> CmdSet<u32> { v.iter().copied().collect() };
        let vals = [mk(&[]), mk(&[1]), mk(&[1, 2]), mk(&[2, 3]), mk(&[1, 2, 3])];
        for a in &vals {
            for b in &vals {
                for c in &vals {
                    check_all(a, b, c, &2u32);
                }
            }
        }
    }

    #[test]
    fn cmdseq_passes_axioms() {
        let mk = |v: &[u32]| -> CmdSeq<u32> { v.iter().copied().collect() };
        let vals = [mk(&[]), mk(&[1]), mk(&[1, 2]), mk(&[2, 1]), mk(&[1, 2, 3])];
        for a in &vals {
            for b in &vals {
                for c in &vals {
                    check_all(a, b, c, &3u32);
                }
            }
        }
    }
}
