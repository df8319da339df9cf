//! Printers for tree patterns: the DSL form (round-trips through the
//! parser) and a multi-line ASCII tree for human inspection.

use crate::condition::Condition;
use crate::node::{EdgeKind, NodeId};
use crate::pattern::TreePattern;
use std::fmt::Write as _;
use tpq_base::TypeInterner;

/// Render `pattern` in DSL form, e.g.
/// `Articles/Article*[/Title][//Paragraph]/Section`.
///
/// Single-child nodes print their child as a spine continuation; multi-child
/// nodes print all but the last child as bracketed branches. The output
/// parses back (via [`crate::parse_pattern`]) to an isomorphic pattern.
pub fn to_dsl(pattern: &TreePattern, types: &TypeInterner) -> String {
    let mut out = String::new();
    write_node(pattern, types, pattern.root(), &mut out);
    out
}

fn write_node(p: &TreePattern, types: &TypeInterner, start: NodeId, out: &mut String) {
    // The spine is emitted iteratively (deep chains must not recurse);
    // only bracketed branches recurse.
    let mut id = start;
    loop {
        let node = p.node(id);
        out.push_str(types.name(node.primary));
        if node.output {
            out.push('*');
        }
        write_conditions(p.conditions(id), types, out);
        // Every child but the last is a bracketed branch; the last one
        // continues the spine.
        let mut children = p.children(id);
        let Some(mut spine) = children.next() else { return };
        for next in children {
            out.push('[');
            out.push_str(p.node(spine).edge.separator());
            write_node(p, types, spine, out);
            out.push(']');
            spine = next;
        }
        out.push_str(p.node(spine).edge.separator());
        id = spine;
    }
}

/// Render `pattern` as an indented multi-line tree, one node per line.
///
/// ```text
/// Articles
/// ├─/─ Article *
/// │    ├─/─ Title
/// │    └─//─ Paragraph
/// ```
pub fn to_tree_string(pattern: &TreePattern, types: &TypeInterner) -> String {
    let mut out = String::new();
    let root = pattern.root();
    describe(pattern, types, root, &mut out);
    out.push('\n');
    let children: Vec<NodeId> = alive_children(pattern, root);
    for (i, &c) in children.iter().enumerate() {
        write_subtree(pattern, types, c, "", i + 1 == children.len(), &mut out);
    }
    out
}

fn write_conditions(conditions: &[Condition], types: &TypeInterner, out: &mut String) {
    if conditions.is_empty() {
        return;
    }
    out.push('{');
    for (i, c) in conditions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}{}{}", types.name(c.attr), c.op, c.value);
    }
    out.push('}');
}

fn alive_children(p: &TreePattern, id: NodeId) -> Vec<NodeId> {
    p.children(id).collect()
}

fn describe(p: &TreePattern, types: &TypeInterner, id: NodeId, out: &mut String) {
    let node = p.node(id);
    out.push_str(types.name(node.primary));
    if node.types.len() > 1 {
        let extras: Vec<&str> =
            node.types.iter().filter(|&t| t != node.primary).map(|t| types.name(t)).collect();
        let _ = write!(out, " (+{})", extras.join(",+"));
    }
    if node.output {
        out.push_str(" *");
    }
    if !p.conditions(id).is_empty() {
        out.push(' ');
        write_conditions(p.conditions(id), types, out);
    }
    if node.temporary {
        out.push_str(" [temp]");
    }
}

fn write_subtree(
    p: &TreePattern,
    types: &TypeInterner,
    id: NodeId,
    prefix: &str,
    last: bool,
    out: &mut String,
) {
    let connector = if last { "└─" } else { "├─" };
    let edge = match p.node(id).edge {
        EdgeKind::Child => "/─ ",
        EdgeKind::Descendant => "//─ ",
    };
    out.push_str(prefix);
    out.push_str(connector);
    out.push_str(edge);
    describe(p, types, id, out);
    out.push('\n');
    let child_prefix = format!("{prefix}{}", if last { "    " } else { "│   " });
    let children = alive_children(p, id);
    for (i, &c) in children.iter().enumerate() {
        write_subtree(p, types, c, &child_prefix, i + 1 == children.len(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::isomorphic;
    use crate::parse::parse_pattern;
    use tpq_base::TypeInterner;

    fn round_trip(s: &str) {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(s, &mut tys).unwrap();
        let printed = to_dsl(&p, &tys);
        let q = parse_pattern(&printed, &mut tys).unwrap();
        assert!(isomorphic(&p, &q), "{s} -> {printed} not isomorphic");
    }

    #[test]
    fn dsl_round_trips() {
        for s in [
            "a",
            "a/b",
            "a//b",
            "a*[/b][//c]/d",
            "Articles/Article*[/Title][//Paragraph]/Section//Paragraph",
            "a[/b[//c][/d]]//e",
            "x[/y*]//z",
        ] {
            round_trip(s);
        }
    }

    #[test]
    fn single_child_prints_as_spine() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern("a/b//c", &mut tys).unwrap();
        assert_eq!(to_dsl(&p, &tys), "a*/b//c");
    }

    #[test]
    fn multi_child_prints_branches_then_spine() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern("a[/b][//c]/d", &mut tys).unwrap();
        assert_eq!(to_dsl(&p, &tys), "a*[/b][//c]/d");
    }

    #[test]
    fn tree_string_contains_every_type_name() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern("Org*[/Dept//Mgr][//Project]", &mut tys).unwrap();
        let art = to_tree_string(&p, &tys);
        for name in ["Org", "Dept", "Mgr", "Project"] {
            assert!(art.contains(name), "missing {name} in:\n{art}");
        }
        assert!(art.contains('*'));
    }

    #[test]
    fn tree_string_marks_temporaries_and_extra_types() {
        let mut tys = TypeInterner::new();
        let mut p = parse_pattern("a/b", &mut tys).unwrap();
        let extra = tys.intern("ghost");
        let b = p.children(p.root()).next().unwrap();
        p.node_mut(b).types.insert(extra);
        let t = p.add_temp_child(p.root(), crate::EdgeKind::Descendant, extra);
        let _ = t;
        let art = to_tree_string(&p, &tys);
        assert!(art.contains("[temp]"));
        assert!(art.contains("(+ghost)"));
    }
}
