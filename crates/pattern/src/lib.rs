//! Tree pattern queries (Section 2.1 and 3 of the paper).
//!
//! A [`TreePattern`] is a rooted tree whose nodes carry a *type* (and,
//! after chasing co-occurrence constraints, possibly extra types), whose
//! edges are either **child** (`/`) or **descendant** (`//`), and in which
//! exactly one node carries the output marker `*`.
//!
//! The crate provides:
//!
//! * an arena-based mutable pattern representation with tombstone removal
//!   and compaction ([`pattern`]);
//! * a concise XPath-like DSL, parser and printer ([`parse`], [`mod@print`]):
//!   `Articles/Article*[/Title][//Paragraph]//Section`;
//! * rooted-tree isomorphism and canonical keys ([`iso`]), used to verify
//!   the paper's uniqueness theorems (4.1 and 5.1);
//! * structural validation ([`TreePattern::validate`]).

#![warn(missing_docs)]

pub mod condition;
pub mod iso;
pub mod node;
pub mod parse;
pub mod pattern;
pub mod print;
pub mod xpath;

pub use condition::{entails, satisfiable, satisfied_by, Condition};
pub use iso::{isomorphic, CanonicalKey};
pub use node::{EdgeKind, NodeId, PatternNode};
pub use parse::{parse_pattern, MAX_BRACKET_DEPTH};
pub use pattern::TreePattern;
pub use xpath::parse_xpath;
