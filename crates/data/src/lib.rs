//! Tree-structured data: the databases that tree pattern queries run
//! against (Section 2.1 of the paper).
//!
//! A [`Document`] is a single rooted tree of multi-typed nodes (an XML
//! document or an LDAP subtree), stored as columns; a [`Forest`] is the
//! paper's "forest of trees" database. Parsed and repaired documents are
//! pre-ordered: a node's id is its document-order rank, so a subtree is an
//! id interval and ancestorship is two comparisons. The crate also
//! provides:
//!
//! * an XML-subset parser and writer ([`xml`]) so examples and tests can be
//!   written as readable markup, plus a chunked streaming reader/writer
//!   pair for documents that should never exist as one `String`;
//! * per-type node lists ([`index`]), built by one counting sort over the
//!   primary-type column ([`Document::primary_column`]), which the matcher
//!   reads directly instead;
//! * a random document generator ([`generate`]) used by the experiment
//!   harness and the property tests.

#![warn(missing_docs)]

pub mod document;
pub mod generate;
pub mod index;
pub mod xml;

pub use document::{DataNodeId, Document, Forest};
pub use generate::{generate_document, stream_xml_to, DocumentSpec, XmlStreamSpec};
pub use index::DocIndex;
pub use xml::{parse_xml, parse_xml_reader, write_xml, write_xml_to, MAX_XML_DEPTH};
