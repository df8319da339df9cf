//! A deliberately small XML subset, sufficient for writing documents in
//! examples and tests as readable markup — plus a chunked streaming parser
//! for documents too large to hold as one `String`.
//!
//! Supported: start/end tags, self-closing tags, an optional `also`
//! attribute listing extra node types (comma- or space-separated), comments
//! (`<!-- ... -->`), inter-element text (ignored — tree patterns are
//! structure-only), and character/entity references inside attribute values
//! (`&amp; &lt; &gt; &quot; &apos; &#NN; &#xHH;`). Not supported:
//! namespaces, CDATA, processing instructions, references in text content.
//!
//! Attribute values that look like integers parse as [`Value::Int`]; the
//! writer keeps `Value::Str("5")` distinguishable by emitting its first
//! character as a character reference (`&#53;5` stays a string on reparse).
//!
//! ```
//! use tpq_base::TypeInterner;
//! let mut tys = TypeInterner::new();
//! let doc = tpq_data::parse_xml(r#"
//!   <Org>
//!     <Employee also="Person"><Project/></Employee>
//!   </Org>"#, &mut tys).unwrap();
//! assert_eq!(doc.len(), 3);
//! ```

use crate::document::{DataNodeId, Document};
use tpq_base::{failpoint, Error, Result, TypeId, TypeInterner, Value};

/// Maximum open-element nesting. The parse loop is iterative, so the call
/// stack is never at risk; this bounds the explicit stack (and the node
/// arena growth) against adversarial `<x><x><x>…` streams while staying
/// well above any realistic document (and above the 100k-deep documents
/// the tests exercise).
pub const MAX_XML_DEPTH: usize = 1 << 18;

/// Parse a document from the XML subset, interning type names into `types`.
///
/// The parser is a flat loop over tags with an explicit open-element
/// stack, so document depth is limited by [`MAX_XML_DEPTH`], not the call
/// stack.
pub fn parse_xml(input: &str, types: &mut TypeInterner) -> Result<Document> {
    failpoint::hit("parse.xml")?;
    let mut p = XmlParser { input: input.as_bytes(), pos: 0, base: 0 };
    let mut b = TreeBuilder::new();
    loop {
        p.skip_misc();
        if p.peek().is_none() {
            break;
        }
        // After skip_misc the cursor sits on '<' (text content is skipped).
        let at = p.base + p.pos;
        if b.done() {
            return Err(Error::XmlParse {
                offset: at,
                message: "trailing content after the root element".into(),
            });
        }
        if p.starts_with("</") {
            let name = p.parse_end_tag()?;
            b.end_tag(name, types).map_err(|message| Error::XmlParse { offset: at, message })?;
        } else {
            let (name, extra, attrs, selfclosing) = p.parse_start_tag(types)?;
            b.start_tag(name, extra, attrs, selfclosing)
                .map_err(|message| Error::XmlParse { offset: at, message })?;
        }
    }
    let doc = b.finish().map_err(|m| p.err(&m))?;
    doc.validate()?;
    Ok(doc)
}

/// Chunk size for [`parse_xml_reader`]. One refill per ~64KB of input keeps
/// syscall overhead negligible while the window stays cache-friendly.
const READ_CHUNK: usize = 64 * 1024;

/// Parse a document from a byte stream without materializing the input as
/// one `String`.
///
/// The reader is pulled in 64 KiB chunks into a sliding
/// window; inter-element text and comments are discarded as they stream
/// past, and only the bytes of the tag currently being parsed are retained.
/// Tag-level parsing, entity decoding and tree building are shared with
/// [`parse_xml`], so the two accept the same language and report the same
/// absolute byte offsets in errors. Peak memory is the document arena plus
/// O(longest tag) of buffered input.
pub fn parse_xml_reader<R: std::io::Read>(reader: R, types: &mut TypeInterner) -> Result<Document> {
    failpoint::hit("parse.xml")?;
    let mut src = ChunkedSource::new(reader);
    let mut b = TreeBuilder::new();
    loop {
        if !src.skip_misc_to_tag()? {
            break; // clean EOF between elements
        }
        let at = src.absolute_pos();
        if b.done() {
            return Err(Error::XmlParse {
                offset: at,
                message: "trailing content after the root element".into(),
            });
        }
        let tag_end = src.find_tag_end()?;
        // Parse the complete tag in place; `base` makes reported offsets
        // absolute within the stream.
        let mut p = XmlParser { input: &src.buf[..tag_end], pos: src.start, base: src.consumed };
        if p.starts_with("</") {
            let name = p.parse_end_tag()?;
            b.end_tag(name, types).map_err(|message| Error::XmlParse { offset: at, message })?;
        } else {
            let (name, extra, attrs, selfclosing) = p.parse_start_tag(types)?;
            b.start_tag(name, extra, attrs, selfclosing)
                .map_err(|message| Error::XmlParse { offset: at, message })?;
        }
        src.start = tag_end;
    }
    let doc =
        b.finish().map_err(|message| Error::XmlParse { offset: src.absolute_pos(), message })?;
    doc.validate()?;
    Ok(doc)
}

/// Sliding input window over an [`std::io::Read`], tracking how many bytes
/// were discarded before the window so error offsets stay absolute.
struct ChunkedSource<R> {
    reader: R,
    buf: Vec<u8>,
    /// Consumed prefix within `buf`.
    start: usize,
    /// Bytes discarded before `buf[0]`.
    consumed: usize,
    eof: bool,
}

impl<R: std::io::Read> ChunkedSource<R> {
    fn new(reader: R) -> Self {
        ChunkedSource {
            reader,
            buf: Vec::with_capacity(READ_CHUNK),
            start: 0,
            consumed: 0,
            eof: false,
        }
    }

    fn absolute_pos(&self) -> usize {
        self.consumed + self.start
    }

    /// Read one more chunk; sets `eof` when the reader is exhausted.
    fn fill(&mut self) -> Result<()> {
        let old_len = self.buf.len();
        self.buf.resize(old_len + READ_CHUNK, 0);
        let n = self.reader.read(&mut self.buf[old_len..]).map_err(|e| Error::XmlParse {
            offset: self.consumed + self.buf.len().min(old_len),
            message: format!("read error: {e}"),
        })?;
        self.buf.truncate(old_len + n);
        if n == 0 {
            self.eof = true;
        }
        Ok(())
    }

    /// Drop the consumed prefix once it is large enough to matter.
    fn compact(&mut self) {
        if self.start >= READ_CHUNK {
            self.consumed += self.start;
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Skip text and comments until the window starts with a tag. Returns
    /// `false` on clean EOF (trailing text/comments are discarded, matching
    /// the slice parser).
    fn skip_misc_to_tag(&mut self) -> Result<bool> {
        loop {
            self.compact();
            // Need up to 4 bytes to tell `<!--` from a tag start.
            while self.buf.len() - self.start < 4 && !self.eof {
                self.fill()?;
            }
            let window = &self.buf[self.start..];
            if window.is_empty() {
                return Ok(false);
            }
            if window[0] != b'<' {
                // Text content: discard up to the next '<' (or everything).
                match window.iter().position(|&b| b == b'<') {
                    Some(i) => self.start += i,
                    None => {
                        self.start = self.buf.len();
                        if self.eof {
                            return Ok(false);
                        }
                    }
                }
                continue;
            }
            if window.starts_with(b"<!--") {
                self.skip_comment()?;
                continue;
            }
            return Ok(true);
        }
    }

    /// Skip a comment the window is positioned at. An unterminated comment
    /// swallows the rest of the input, matching the slice parser.
    fn skip_comment(&mut self) -> Result<()> {
        let mut from = self.start + 4;
        loop {
            if let Some(end) = find(&self.buf, from, b"-->") {
                self.start = end + 3;
                return Ok(());
            }
            if self.eof {
                self.start = self.buf.len();
                return Ok(());
            }
            // Re-scan only the tail that could still hold a split "-->".
            from = self.buf.len().saturating_sub(2).max(self.start + 4);
            self.fill()?;
        }
    }

    /// With the window at '<', find the end of the tag: the index one past
    /// its '>' (quote-aware, so '>' inside an attribute value doesn't
    /// terminate the tag).
    fn find_tag_end(&mut self) -> Result<usize> {
        let mut i = self.start + 1;
        let mut in_quote = false;
        loop {
            while i < self.buf.len() {
                match self.buf[i] {
                    b'"' => in_quote = !in_quote,
                    b'>' if !in_quote => return Ok(i + 1),
                    _ => {}
                }
                i += 1;
            }
            if self.eof {
                return Err(Error::XmlParse {
                    offset: self.consumed + self.buf.len(),
                    message: "unexpected end of input inside tag".into(),
                });
            }
            self.fill()?;
        }
    }
}

/// Incremental tree construction shared by the slice and streaming parsers:
/// an open-element stack with the depth limit and the root/trailing-content
/// state machine. Elements arrive in document order, so each start tag
/// appends one node to the document's columns and the result is
/// pre-ordered. Methods return plain messages; callers attach offsets.
struct TreeBuilder {
    doc: Document,
    /// Open elements as (start-tag type, node).
    open: Vec<(TypeId, DataNodeId)>,
    /// Scratch for one node's type set.
    types: Vec<TypeId>,
}

impl TreeBuilder {
    fn new() -> Self {
        TreeBuilder { doc: Document::empty(), open: Vec::new(), types: Vec::new() }
    }

    /// Whether the root element has been fully closed.
    fn done(&self) -> bool {
        !self.doc.is_empty() && self.open.is_empty()
    }

    fn start_tag(
        &mut self,
        name: TypeId,
        extra: Vec<TypeId>,
        attrs: Vec<(TypeId, Value)>,
        selfclosing: bool,
    ) -> std::result::Result<(), String> {
        let parent = match self.open.last() {
            Some(&(_, parent)) => Some(parent),
            None if self.doc.is_empty() => None,
            None => return Err("trailing content after the root element".into()),
        };
        self.types.clear();
        self.types.push(name);
        self.types.extend(extra);
        self.types.sort_unstable();
        self.types.dedup();
        let id = self.doc.push_node(parent, name, &self.types, attrs);
        if !selfclosing {
            if self.open.len() >= MAX_XML_DEPTH {
                return Err("element nesting too deep".into());
            }
            self.open.push((name, id));
        }
        Ok(())
    }

    /// Close the innermost open element. The name is looked up, not
    /// interned, so a mismatched end tag leaves the interner as it was.
    fn end_tag(&mut self, name: &str, types: &TypeInterner) -> std::result::Result<(), String> {
        match self.open.pop() {
            Some((want, _)) if types.lookup(name) == Some(want) => Ok(()),
            Some((want, _)) => {
                Err(format!("mismatched end tag </{name}> (expected </{}>)", types.name(want)))
            }
            None => Err(format!("unmatched end tag </{name}>")),
        }
    }

    fn finish(self) -> std::result::Result<Document, String> {
        if self.doc.is_empty() {
            Err("expected a root element".into())
        } else if !self.open.is_empty() {
            Err("unexpected end of input inside element".into())
        } else {
            Ok(self.doc)
        }
    }
}

struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Absolute offset of `input[0]` in the overall stream (0 for slice
    /// parsing; the discarded-prefix length for the chunked reader).
    base: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, message: &str) -> Error {
        Error::XmlParse { offset: self.base + self.pos, message: message.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    /// Skip whitespace, text content and comments.
    fn skip_misc(&mut self) {
        loop {
            if self.starts_with("<!--") {
                match find(self.input, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else if self.peek().is_some() && self.peek() != Some(b'<') {
                self.pos += 1;
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
            _ => return Err(self.err("expected an element name")),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("names are ASCII"))
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Parse `</name>` with the cursor at `<`. Returns the name.
    fn parse_end_tag(&mut self) -> Result<&'a str> {
        self.pos += 2; // "</"
        let name = self.parse_name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' closing end tag"));
        }
        self.pos += 1;
        Ok(name)
    }

    /// Parse `<name attr="v" ...>` or `<name .../>`. Returns
    /// `(name, extra types, attributes, self_closing)`. The name is interned
    /// after the attributes, which fixes the order of type ids and so the
    /// order of `also=` lists the writer emits.
    #[allow(clippy::type_complexity)]
    fn parse_start_tag(
        &mut self,
        types: &mut TypeInterner,
    ) -> Result<(TypeId, Vec<TypeId>, Vec<(TypeId, Value)>, bool)> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        self.skip_ws();
        // Attributes. The reserved name `also="T1,T2"` adds extra node
        // types; every other attribute becomes a typed value
        // (integer-looking text parses as an integer, but any value written
        // with a character reference stays a string — that's how the writer
        // round-trips `Value::Str("5")`).
        let mut extra = Vec::new();
        let mut attrs: Vec<(TypeId, Value)> = Vec::new();
        // XML 1.0 "Unique Att Spec": a start tag names each attribute once.
        let mut seen: Vec<&str> = Vec::new();
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_') {
            let attr_name = self.parse_name()?;
            if seen.contains(&attr_name) {
                return Err(self.err(&format!("duplicate attribute '{attr_name}'")));
            }
            self.skip_ws();
            if self.peek() != Some(b'=') {
                return Err(self.err(&format!("expected '=' after attribute '{attr_name}'")));
            }
            self.pos += 1;
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected '\"' opening attribute value"));
            }
            self.pos += 1;
            let (value, had_ref) = self.parse_attr_value()?;
            if attr_name == "also" {
                for part in value.split([',', ' ']).filter(|s| !s.is_empty()) {
                    extra.push(types.intern(part));
                }
            } else {
                let v = if had_ref {
                    Value::Str(value)
                } else {
                    match value.parse::<i64>() {
                        Ok(i) => Value::Int(i),
                        Err(_) => Value::Str(value),
                    }
                };
                attrs.push((types.intern(attr_name), v));
            }
            seen.push(attr_name);
            self.skip_ws();
        }
        // Self-closing?
        if self.starts_with("/>") {
            self.pos += 2;
            return Ok((types.intern(name), extra, attrs, true));
        }
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' or '/>'"));
        }
        self.pos += 1;
        Ok((types.intern(name), extra, attrs, false))
    }

    /// Parse an attribute value with the cursor just past the opening `"`.
    /// Decodes character/entity references; returns the decoded text and
    /// whether any reference occurred (which forces `Value::Str`).
    fn parse_attr_value(&mut self) -> Result<(String, bool)> {
        let mut value = String::new();
        let mut had_ref = false;
        let mut seg = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b'"') => {
                    value.push_str(&String::from_utf8_lossy(&self.input[seg..self.pos]));
                    self.pos += 1;
                    return Ok((value, had_ref));
                }
                Some(b'&') => {
                    value.push_str(&String::from_utf8_lossy(&self.input[seg..self.pos]));
                    had_ref = true;
                    value.push(self.parse_reference()?);
                    seg = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Parse `&amp;`-style entity or `&#NN;`/`&#xHH;` character references
    /// with the cursor at `&`.
    fn parse_reference(&mut self) -> Result<char> {
        let amp = self.pos;
        // Entity names are short; bound the scan so an unescaped lone '&'
        // fails fast with a usable offset.
        let mut end = amp + 1;
        while end < self.input.len() && self.input[end] != b';' && end - amp <= 12 {
            end += 1;
        }
        if end >= self.input.len() || self.input[end] != b';' {
            return Err(self.err("'&' must start an entity reference (use &amp; for a literal)"));
        }
        let body = &self.input[amp + 1..end];
        let c = match body {
            b"amp" => '&',
            b"lt" => '<',
            b"gt" => '>',
            b"quot" => '"',
            b"apos" => '\'',
            [b'#', digits @ ..] => {
                let cp = match digits {
                    [b'x' | b'X', hex @ ..] => {
                        std::str::from_utf8(hex).ok().and_then(|s| u32::from_str_radix(s, 16).ok())
                    }
                    _ => std::str::from_utf8(digits).ok().and_then(|s| s.parse::<u32>().ok()),
                };
                match cp.and_then(char::from_u32) {
                    Some(c) => c,
                    None => return Err(self.err("invalid character reference")),
                }
            }
            _ => return Err(self.err("unknown entity reference")),
        };
        self.pos = end + 1;
        Ok(c)
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

/// Serialize a document back to the XML subset (indented, one element per
/// line). Round-trips through [`parse_xml`]. Iterative: safe on deep
/// documents.
pub fn write_xml(doc: &Document, types: &TypeInterner) -> String {
    let mut out = Vec::new();
    write_xml_to(doc, types, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// Serialize a document to any [`std::io::Write`] sink — the streaming
/// counterpart of [`write_xml`], for documents whose markup should go
/// straight to disk. Attribute values are escaped so the output reparses to
/// an equal document (see the module docs for the `Value::Str("5")` rule).
pub fn write_xml_to<W: std::io::Write>(
    doc: &Document,
    types: &TypeInterner,
    w: &mut W,
) -> std::io::Result<()> {
    enum Step {
        Open(DataNodeId, usize),
        Close(DataNodeId, usize),
    }
    let mut stack = vec![Step::Open(doc.root(), 0)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Open(id, indent) => {
                write_open(doc, types, id, indent, w)?;
                // The next sibling comes after this node's whole subtree.
                if let Some(s) = doc.next_sibling(id) {
                    stack.push(Step::Open(s, indent));
                }
                if let Some(c) = doc.first_child(id) {
                    stack.push(Step::Close(id, indent));
                    stack.push(Step::Open(c, indent + 1));
                }
            }
            Step::Close(id, indent) => {
                write_indent(w, indent)?;
                w.write_all(b"</")?;
                w.write_all(types.name(doc.primary(id)).as_bytes())?;
                w.write_all(b">\n")?;
            }
        }
    }
    Ok(())
}

fn write_indent<W: std::io::Write>(w: &mut W, indent: usize) -> std::io::Result<()> {
    for _ in 0..indent {
        w.write_all(b"  ")?;
    }
    Ok(())
}

/// Write `s` with the XML special characters escaped, so the value survives
/// [`XmlParser::parse_attr_value`] unchanged.
fn write_escaped<W: std::io::Write>(w: &mut W, s: &str) -> std::io::Result<()> {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>', '"']) {
        w.write_all(&rest.as_bytes()[..i])?;
        w.write_all(match rest.as_bytes()[i] {
            b'&' => b"&amp;".as_slice(),
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            _ => b"&quot;",
        })?;
        rest = &rest[i + 1..];
    }
    w.write_all(rest.as_bytes())
}

fn write_open<W: std::io::Write>(
    doc: &Document,
    types: &TypeInterner,
    id: DataNodeId,
    indent: usize,
    w: &mut W,
) -> std::io::Result<()> {
    let primary = doc.primary(id);
    let name = types.name(primary);
    write_indent(w, indent)?;
    w.write_all(b"<")?;
    w.write_all(name.as_bytes())?;
    if doc.types(id).len() > 1 {
        let extras: Vec<&str> =
            doc.types(id).iter().filter(|&&t| t != primary).map(|&t| types.name(t)).collect();
        w.write_all(b" also=\"")?;
        write_escaped(w, &extras.join(","))?;
        w.write_all(b"\"")?;
    }
    for (a, v) in doc.attrs(id) {
        w.write_all(b" ")?;
        w.write_all(types.name(*a).as_bytes())?;
        w.write_all(b"=\"")?;
        match v {
            Value::Int(i) => write!(w, "{i}")?,
            Value::Str(s) => {
                if s.parse::<i64>().is_ok() {
                    // Int-looking string: emit the first character as a
                    // character reference so the reparse stays `Value::Str`.
                    let mut cs = s.chars();
                    let first = cs.next().expect("an int-parsing string is non-empty");
                    write!(w, "&#{};", first as u32)?;
                    write_escaped(w, cs.as_str())?;
                } else {
                    write_escaped(w, s)?;
                }
            }
        }
        w.write_all(b"\"")?;
    }
    if doc.first_child(id).is_none() {
        w.write_all(b"/>\n")
    } else {
        w.write_all(b">\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::SmallRng;

    fn parse(s: &str) -> (Document, TypeInterner) {
        let mut tys = TypeInterner::new();
        let d = parse_xml(s, &mut tys).expect("parse");
        (d, tys)
    }

    #[test]
    fn single_self_closing_element() {
        let (d, tys) = parse("<Book/>");
        assert_eq!(d.len(), 1);
        assert_eq!(tys.name(d.primary(d.root())), "Book");
    }

    #[test]
    fn nested_elements_with_text_and_comments() {
        let (d, _) = parse("<a> hello <!-- note --> <b><c/></b> tail <b/> </a>");
        assert_eq!(d.len(), 4);
        assert_eq!(d.children(d.root()).count(), 2);
    }

    #[test]
    fn also_attribute_adds_types() {
        let (d, tys) = parse(r#"<Employee also="Person,Manager"/>"#);
        let person = tys.lookup("Person").unwrap();
        let manager = tys.lookup("Manager").unwrap();
        assert!(d.has_type(d.root(), person));
        assert!(d.has_type(d.root(), manager));
        assert_eq!(d.types(d.root()).len(), 3);
    }

    #[test]
    fn mismatched_end_tag_is_an_error() {
        let mut tys = TypeInterner::new();
        assert!(parse_xml("<a><b></a></b>", &mut tys).is_err());
    }

    #[test]
    fn mismatched_end_tag_does_not_grow_the_interner() {
        let mut tys = TypeInterner::new();
        assert!(parse_xml("<a><b></zzz></a>", &mut tys).is_err());
        assert_eq!(tys.len(), 2, "only a and b are interned");
        assert_eq!(tys.lookup("zzz"), None);
        let err = parse_xml_reader("<a></nope>".as_bytes(), &mut tys).unwrap_err();
        assert!(err.to_string().contains("mismatched end tag </nope> (expected </a>)"), "{err}");
        assert_eq!(tys.len(), 2);
    }

    #[test]
    fn parsed_documents_are_pre_ordered() {
        let (d, _) = parse("<a><b><c/><d/></b><e><f/></e></a>");
        assert!(d.is_pre_order());
        assert_eq!(d.subtree_end(DataNodeId(1)), DataNodeId(3));
        assert_eq!(d.subtree_end(DataNodeId(4)), DataNodeId(5));
        assert_eq!(d.subtree_end(d.root()), DataNodeId(5));
    }

    #[test]
    fn trailing_content_is_an_error() {
        let mut tys = TypeInterner::new();
        assert!(parse_xml("<a/><b/>", &mut tys).is_err());
    }

    #[test]
    fn unterminated_input_is_an_error() {
        let mut tys = TypeInterner::new();
        assert!(parse_xml("<a><b/>", &mut tys).is_err());
        assert!(parse_xml("<a", &mut tys).is_err());
        assert!(parse_xml("", &mut tys).is_err());
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        // Regression battery: every input here used to reach (or guard
        // with) an `expect` somewhere in the parse loop. Each must come
        // back as Err with a usable offset, never a panic.
        let cases = [
            "</a>",
            "<a></a></a>",
            "<a></b>",
            "<a><b></b></b>",
            "<a><b></a></b>",
            "<a></a",
            "<a><</a>",
            "<a></ >",
            "<a><b/></a></a>",
            "<!-- only a comment -->",
            "<a></a x>",
            r#"<a x="1" x="2"/>"#,
        ];
        for case in cases {
            let mut tys = TypeInterner::new();
            let got = parse_xml(case, &mut tys);
            let err = got.expect_err(&format!("{case:?} must fail"));
            match err {
                Error::XmlParse { offset, .. } => assert!(offset <= case.len(), "{case:?}"),
                other => panic!("{case:?}: expected XmlParse, got {other:?}"),
            }
        }
    }

    #[test]
    fn attributes_parse_as_typed_values() {
        let (d, tys) = parse(r#"<Book price="95" lang="en" isbn="978-3"/>"#);
        let attr = |name| d.attr(d.root(), tys.lookup(name).unwrap());
        assert_eq!(attr("price"), Some(&Value::Int(95)));
        assert_eq!(attr("lang"), Some(&Value::Str("en".into())));
        // Not a pure integer -> string.
        assert_eq!(attr("isbn"), Some(&Value::Str("978-3".into())));
        assert_eq!(attr("Book"), None);
    }

    #[test]
    fn also_combines_with_value_attributes() {
        let (d, tys) = parse(r#"<Employee also="Person" age="41"><Badge/></Employee>"#);
        assert!(d.has_type(d.root(), tys.lookup("Person").unwrap()));
        assert_eq!(d.attr(d.root(), tys.lookup("age").unwrap()), Some(&tpq_base::Value::Int(41)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn attribute_round_trip() {
        let (d, mut tys) = parse(r#"<Book price="95" lang="en"><Title n="-2"/></Book>"#);
        let xml = write_xml(&d, &tys);
        let d2 = parse_xml(&xml, &mut tys).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn entity_references_decode_in_attribute_values() {
        let (d, tys) = parse(r#"<a v="&amp;&lt;&gt;&quot;&apos;" w="x &amp; y"/>"#);
        assert_eq!(d.attr(d.root(), tys.lookup("v").unwrap()), Some(&Value::Str("&<>\"'".into())));
        assert_eq!(d.attr(d.root(), tys.lookup("w").unwrap()), Some(&Value::Str("x & y".into())));
    }

    #[test]
    fn character_references_decode() {
        let (d, tys) = parse(r#"<a v="&#65;&#x42;&#x2603;"/>"#);
        assert_eq!(d.attr(d.root(), tys.lookup("v").unwrap()), Some(&Value::Str("AB☃".into())));
    }

    #[test]
    fn referenced_digits_stay_strings() {
        // The writer's disambiguation: &#53;5 is the string "55", not Int(55).
        let (d, tys) = parse(r#"<a v="&#53;5"/>"#);
        assert_eq!(d.attr(d.root(), tys.lookup("v").unwrap()), Some(&Value::Str("55".into())));
    }

    #[test]
    fn bad_references_are_errors() {
        for case in [
            r#"<a v="x & y"/>"#,    // bare ampersand
            r#"<a v="&bogus;"/>"#,  // unknown entity
            r#"<a v="&#xD800;"/>"#, // surrogate code point
            r#"<a v="&#;"/>"#,      // empty reference
            r#"<a v="&amp"/>"#,     // unterminated
        ] {
            let mut tys = TypeInterner::new();
            assert!(parse_xml(case, &mut tys).is_err(), "{case:?}");
        }
    }

    #[test]
    fn special_characters_in_attributes_round_trip() {
        let mut d = Document::new(TypeId(0));
        let mut tys = TypeInterner::new();
        tys.intern("root");
        let attr = tys.intern("v");
        let cases = [
            "he said \"hi\"",
            "a < b && c > d",
            "&amp; already escaped",
            "5",
            "-17",
            "+3",
            "007",
            "",
            "line\nbreak",
            "snow ☃ man",
        ];
        for (i, s) in cases.iter().enumerate() {
            let c = d.add_child(d.root(), TypeId(0));
            d.set_attr(c, attr, Value::Str((*s).to_owned()));
            d.set_attr(c, tys.intern(&format!("n{i}")), Value::Int(i as i64 - 3));
        }
        let xml = write_xml(&d, &tys);
        let d2 = parse_xml(&xml, &mut tys).unwrap();
        assert_eq!(d, d2, "xml was:\n{xml}");
    }

    #[test]
    fn int_looking_strings_stay_strings() {
        let mut d = Document::new(TypeId(0));
        let mut tys = TypeInterner::new();
        tys.intern("root");
        let a = tys.intern("a");
        let b = tys.intern("b");
        d.set_attr(d.root(), a, Value::Str("5".into()));
        d.set_attr(d.root(), b, Value::Int(5));
        let xml = write_xml(&d, &tys);
        let d2 = parse_xml(&xml, &mut tys).unwrap();
        assert_eq!(d2.attr(d2.root(), a), Some(&Value::Str("5".into())));
        assert_eq!(d2.attr(d2.root(), b), Some(&Value::Int(5)));
    }

    /// Seeded property test: random documents with adversarial attribute
    /// values and multi-typing survive write → parse unchanged.
    #[test]
    fn write_parse_round_trip_property() {
        let alphabet = ['a', '&', '<', '>', '"', '\'', '5', '-', ' ', ';', '#', 'é'];
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tys = TypeInterner::new();
            let ntypes = 4u32;
            for i in 0..ntypes {
                tys.intern(&format!("t{i}"));
            }
            let attr_names: Vec<TypeId> = (0..3).map(|i| tys.intern(&format!("attr{i}"))).collect();
            let mut d = Document::new(TypeId(rng.gen_range(0..ntypes)));
            // Build depth-first along a stack of open nodes so ids are
            // pre-order ranks — `parse_xml` numbers nodes in document
            // order, and `Document` equality compares node by node.
            let mut open = vec![d.root()];
            for _ in 0..rng.gen_range(1..30usize) {
                for _ in 0..rng.gen_range(0..open.len()) {
                    if open.len() > 1 {
                        open.pop();
                    }
                }
                let parent = *open.last().unwrap();
                let id = d.add_child(parent, TypeId(rng.gen_range(0..ntypes)));
                open.push(id);
                if rng.gen_bool(0.3) {
                    d.add_type(id, TypeId(rng.gen_range(0..ntypes)));
                }
                for &name in &attr_names {
                    if !rng.gen_bool(0.4) {
                        continue;
                    }
                    let v = if rng.gen_bool(0.5) {
                        Value::Int(rng.next_u64() as i64)
                    } else {
                        let len = rng.gen_range(0..8usize);
                        let s: String = (0..len).map(|_| *rng.choose(&alphabet).unwrap()).collect();
                        Value::Str(s)
                    };
                    d.set_attr(id, name, v);
                    break; // one attr per name rule: move on
                }
            }
            let xml = write_xml(&d, &tys);
            let d2 = parse_xml(&xml, &mut tys)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{xml}"));
            assert_eq!(d, d2, "seed {seed}: round trip changed the document\n{xml}");
        }
    }

    #[test]
    fn malformed_attributes_rejected() {
        let mut tys = TypeInterner::new();
        assert!(parse_xml(r#"<a x=1/>"#, &mut tys).is_err(), "unquoted");
        assert!(parse_xml(r#"<a x/>"#, &mut tys).is_err(), "missing =");
        assert!(parse_xml(r#"<a x="y/>"#, &mut tys).is_err(), "unterminated");
    }

    #[test]
    fn write_then_parse_round_trips() {
        let (d, mut tys) = parse(
            r#"<Org><Dept><Employee also="Person"><Project/></Employee></Dept><Dept/></Org>"#,
        );
        let xml = write_xml(&d, &tys);
        let d2 = parse_xml(&xml, &mut tys).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn deep_nesting_parses() {
        let depth = 100_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<x>");
        }
        s.push_str("<y/>");
        for _ in 0..depth {
            s.push_str("</x>");
        }
        let (d, _) = parse(&s);
        assert_eq!(d.len(), depth + 1);
    }

    #[test]
    fn absurd_nesting_is_rejected_not_oom() {
        // One level past the cap: the parser must error cleanly instead of
        // growing the arena without bound.
        let depth = MAX_XML_DEPTH + 1;
        let mut s = String::with_capacity(depth * 3 + 4);
        for _ in 0..depth {
            s.push_str("<x>");
        }
        let mut tys = TypeInterner::new();
        let err = parse_xml(&s, &mut tys).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn parse_xml_failpoint_injects_an_error() {
        let _fp = failpoint::arm_for_thread("parse.xml", failpoint::Action::Err, 1);
        let mut tys = TypeInterner::new();
        let err = parse_xml("<a/>", &mut tys).unwrap_err();
        assert_eq!(err, Error::Injected { point: "parse.xml".into() });
        assert!(parse_xml("<a/>", &mut tys).is_ok(), "one-shot");
    }

    // ---- streaming reader ----

    /// A reader that hands out at most `step` bytes per `read` call, to
    /// exercise refills landing mid-tag, mid-comment and mid-reference.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reader_agrees_with_slice_parser() {
        let cases = [
            "<Book/>",
            "<a> hello <!-- note --> <b><c/></b> tail <b/> </a>",
            r#"<Employee also="Person,Manager" age="41"><Badge/></Employee>"#,
            r#"<a v="&amp;&lt;5 &gt; 4&quot;" w="a > b"/>"#,
            "<a/> trailing text ",
            "<a/><!-- post-root comment -->",
        ];
        for case in cases {
            let mut tys1 = TypeInterner::new();
            let want = parse_xml(case, &mut tys1).expect(case);
            let mut tys2 = TypeInterner::new();
            let got = parse_xml_reader(case.as_bytes(), &mut tys2).expect(case);
            assert_eq!(want, got, "{case:?}");
        }
    }

    #[test]
    fn reader_rejects_what_the_slice_parser_rejects() {
        let cases = [
            "</a>",
            "<a></a></a>",
            "<a></b>",
            "<a></a",
            "<a><</a>",
            "",
            "<!-- only a comment -->",
            "<a/><b/>",
            r#"<a x="y/>"#,
            r#"<a v="&bogus;"/>"#,
        ];
        for case in cases {
            let mut tys = TypeInterner::new();
            let err = parse_xml_reader(case.as_bytes(), &mut tys)
                .expect_err(&format!("{case:?} must fail"));
            match err {
                Error::XmlParse { offset, .. } => assert!(offset <= case.len(), "{case:?}"),
                other => panic!("{case:?}: expected XmlParse, got {other:?}"),
            }
        }
    }

    #[test]
    fn reader_survives_tiny_chunks() {
        let xml = r#"<Org note="a &amp; b"><!-- split --- comment --><Dept also="Unit"><Employee n="-3"/></Dept> text <Dept/></Org>"#;
        let mut tys = TypeInterner::new();
        let want = parse_xml(xml, &mut tys).unwrap();
        for step in 1..9 {
            let mut tys2 = TypeInterner::new();
            let r = Dribble { data: xml.as_bytes(), pos: 0, step };
            let got = parse_xml_reader(r, &mut tys2).unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(want, got, "step {step}");
        }
    }

    #[test]
    fn reader_handles_inputs_larger_than_one_chunk() {
        // Enough siblings that the window slides several times.
        let n = 20_000;
        let mut xml = String::with_capacity(n * 16);
        xml.push_str("<root>");
        for i in 0..n {
            xml.push_str(&format!("<item k=\"{}\"/>", i % 97));
        }
        xml.push_str("</root>");
        assert!(xml.len() > 2 * READ_CHUNK);
        let mut tys = TypeInterner::new();
        let doc = parse_xml_reader(xml.as_bytes(), &mut tys).unwrap();
        assert_eq!(doc.len(), n + 1);
        let mut tys2 = TypeInterner::new();
        assert_eq!(doc, parse_xml(&xml, &mut tys2).unwrap());
    }

    #[test]
    fn reader_failpoint_injects_an_error() {
        let _fp = failpoint::arm_for_thread("parse.xml", failpoint::Action::Err, 1);
        let mut tys = TypeInterner::new();
        let err = parse_xml_reader("<a/>".as_bytes(), &mut tys).unwrap_err();
        assert_eq!(err, Error::Injected { point: "parse.xml".into() });
    }

    #[test]
    fn write_xml_to_matches_write_xml() {
        let (d, tys) =
            parse(r#"<Org><Dept count="2"><Employee also="Person"/><Employee/></Dept></Org>"#);
        let mut bytes = Vec::new();
        write_xml_to(&d, &tys, &mut bytes).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), write_xml(&d, &tys));
    }
}
