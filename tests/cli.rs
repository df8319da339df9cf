//! Integration tests for the `tpq` command-line binary.

use std::io::Write as _;
use std::process::{Command, Output};

fn tpq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpq")).args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tpq-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn minimize_with_inline_constraint() {
    let out = tpq(&[
        "minimize",
        "--query",
        "Book*[/Title][/Publisher]",
        "--ic",
        "Book -> Publisher",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "Book*/Title");
    assert!(stderr(&out).contains("nodes 3 -> 2"));
}

#[test]
fn minimize_accepts_xpath() {
    let out = tpq(&[
        "minimize",
        "--xpath",
        "//Dept[.//DBProject]//Manager//DBProject",
        "--strategy",
        "cim",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // XPath marks the trailing DBProject; the bare predicate branch folds.
    let dsl = stdout(&out);
    assert!(dsl.contains("Manager"), "{dsl}");
    assert!(!dsl.contains('['), "single spine expected: {dsl}");
}

#[test]
fn minimize_with_schema_file() {
    let schema =
        temp_file("schema.txt", "element Book = Title, Author+\nelement Author = LastName");
    let out = tpq(&[
        "minimize",
        "--query",
        "Book*[/Title][//LastName][/Chapter]",
        "--schema",
        schema.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "Book*/Chapter");
}

#[test]
fn match_reports_answers_with_paths() {
    let doc = temp_file("org.xml", "<Root><Dept><Manager/></Dept><Dept/></Root>");
    let out = tpq(&["match", "--query", "Dept*/Manager", "--doc", doc.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 answer(s)"), "{text}");
    assert!(text.contains("/Root/Dept"), "{text}");
}

#[test]
fn match_takes_positional_doc_and_engines_agree() {
    let doc =
        temp_file("engines.xml", "<Root><Dept><Manager/><Dept><Manager/></Dept></Dept></Root>");
    let path = doc.to_str().unwrap();
    let mut outputs = Vec::new();
    for engine in [&[][..], &["--engine", "embed"], &["--engine", "naive"]] {
        let out = tpq(&[&["match", "Dept*//Manager", path][..], engine].concat());
        assert!(out.status.success(), "{engine:?}: {}", stderr(&out));
        outputs.push(stdout(&out));
    }
    assert!(outputs[0].contains("2 answer(s)"), "{}", outputs[0]);
    assert_eq!(outputs[0], outputs[1], "default vs embed output");
    assert_eq!(outputs[0], outputs[2], "embed vs naive output");
    // The twig join is gone: its name is an unknown engine like any other.
    for engine in ["bogus", "twig"] {
        let out = tpq(&["match", "Dept*//Manager", path, "--engine", engine]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown engine '{engine}' (embed|naive)")), "{err}");
    }
}

#[test]
fn match_count_mode() {
    let doc = temp_file("shelf.xml", r#"<Shelf><Book price="5"/><Book price="50"/></Shelf>"#);
    let out = tpq(&[
        "match",
        "--query",
        "Shelf*//Book{price<10}",
        "--doc",
        doc.to_str().unwrap(),
        "--count",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "1");
}

#[test]
fn check_reports_containment_directions() {
    let out = tpq(&["check", "--q1", "a*/b/c", "--q2", "a*/b"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("q1 ⊆ q2: true"), "{text}");
    assert!(text.contains("q2 ⊆ q1: false"), "{text}");
    assert!(text.contains("equivalent: false"), "{text}");
    // With an IC the reverse direction holds too.
    let out = tpq(&["check", "--q1", "a*", "--q2", "a*/b", "--ic", "a -> b"]);
    assert!(stdout(&out).contains("equivalent: true"), "{}", stdout(&out));
}

#[test]
fn closure_prints_derived_constraints() {
    let ics = temp_file("ics.txt", "a -> b\nb ~ c\n");
    let out = tpq(&["closure", "--constraints", ics.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("a -> b"));
    assert!(text.contains("a -> c"), "transferred via co-occurrence: {text}");
    assert!(text.contains("a ->> b"));
}

#[test]
fn repair_outputs_satisfying_xml() {
    let doc = temp_file("raw.xml", "<Book/>");
    let ics = temp_file("bookics.txt", "Book -> Title\n");
    let out =
        tpq(&["repair", "--doc", doc.to_str().unwrap(), "--constraints", ics.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("<Title/>"), "{}", stdout(&out));
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = tpq(&["minimize", "--query", "a[["]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
    let out = tpq(&["bogus"]);
    assert!(!out.status.success());
    let out = tpq(&["minimize"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--query is required"), "{}", stderr(&out));
}

#[test]
fn minimize_batch_mode_shares_one_session() {
    let queries = temp_file(
        "queries.txt",
        "# comment\nBook*[/Title][/Publisher]\nBook*[/Publisher]\n\nShelf*//Book[/Publisher]\n",
    );
    let out = tpq(&["minimize", "--batch", queries.to_str().unwrap(), "--ic", "Book -> Publisher"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.trim().lines().collect();
    assert_eq!(lines, vec!["Book*/Title", "Book*", "Shelf*//Book"]);
}

#[test]
fn batch_folds_repeats_and_prints_what_each_line_minimizes_to() {
    // Verbatim repeats, whitespace-padded repeats, isomorphic re-spellings,
    // comments and blank lines. Isomorphic queries share the first
    // spelling's result, so the re-spellings here minimize to paths, which
    // have one spelling.
    let lines = [
        "Book*[/Title][/Publisher]",
        "# a comment",
        "a*[/b][/b/c]",
        "Book*[/Title][/Publisher]",
        "",
        "  Book*[/Title][/Publisher]\t",
        "Book*[/Publisher][/Title]",
        "a*[/b/c][/b]",
        "Shelf*//Book[/Publisher]",
        "   ",
        "a*[/b][/b/c]",
        "Shelf*//Book[/Publisher]",
    ];
    let queries = temp_file("folded.txt", &(lines.join("\n") + "\n"));
    let ic = ["--ic", "Book -> Publisher"];
    let mut expected = String::new();
    for line in lines.iter().map(|l| l.trim()).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let out = tpq(&[&["minimize", "--query", line][..], &ic].concat());
        assert!(out.status.success(), "{line}: {}", stderr(&out));
        expected.push_str(&stdout(&out));
    }
    for jobs in ["1", "2", "4"] {
        let out = tpq(&[
            &["minimize", "--batch", queries.to_str().unwrap(), "--jobs", jobs, "--stats"][..],
            &ic,
        ]
        .concat());
        assert!(out.status.success(), "jobs {jobs}: {}", stderr(&out));
        assert_eq!(stdout(&out), expected, "jobs {jobs}");
        // Counted per input line: nine lines, three distinct patterns up
        // to isomorphism, the other six lines cache hits.
        let err = stderr(&out);
        assert!(err.starts_with("9 queries (3 unique) | cache 6 hit / 3 miss |"), "{err}");
        assert!(err.contains("| 0 failed |"), "{err}");
    }
    // The obs counters count the same way.
    let metrics = std::env::temp_dir().join(format!("tpq-folded-{}.json", std::process::id()));
    let out = tpq(&[
        &["--metrics-json", metrics.to_str().unwrap()][..],
        &["minimize", "--batch", queries.to_str().unwrap()],
        &ic,
    ]
    .concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let json = tpq::base::Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counter = |name: &str| {
        json.get("counters")
            .and_then(|c| c.as_array())
            .and_then(|c| c.iter().find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)))
            .and_then(|e| e.get("value"))
            .and_then(|v| v.as_i64())
    };
    assert_eq!(counter("batch.cache.hit"), Some(6));
    assert_eq!(counter("batch.cache.miss"), Some(3));
    std::fs::remove_file(metrics).ok();
}

#[test]
fn a_repeated_malformed_batch_line_is_reported_at_its_first_occurrence() {
    let queries = temp_file("malformed.txt", "a*[/b]\nBook*[/Title\n\nBook*[/Title\na*[/b]\n");
    let out = tpq(&["minimize", "--batch", queries.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(&format!("{}:2:", queries.display())), "{err}");
    assert!(!err.contains(":4:"), "{err}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

/// A batch whose output (about 280 KB) overflows any pipe buffer, so the
/// writer is still writing when its reader goes away.
fn large_batch(name: &str) -> std::path::PathBuf {
    temp_file(name, &"Book*[/Title][/Publisher]\n".repeat(20_000))
}

/// Run `tpq args`, read the first line of its output, then close the pipe
/// while the writer is still writing. Returns that line and the outcome.
fn into_closed_pipe(args: &[&str]) -> (String, Output) {
    use std::io::BufRead as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // `| head -1`: read one line, then close the pipe.
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    (first, child.wait_with_output().expect("binary exits"))
}

/// Run `tpq args` with stdout on `/dev/full`.
#[cfg(target_os = "linux")]
fn into_a_full_device(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(args)
        .stdout(std::fs::File::create("/dev/full").expect("/dev/full opens"))
        .output()
        .expect("binary runs")
}

/// A closed pipe ends the command quietly; a failed write is a CLI error.
fn assert_quiet_exit(out: &Output) {
    let err = stderr(out);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(out.status.success(), "a vanished reader is not an error: {err}");
}

#[cfg(target_os = "linux")]
fn assert_write_error(out: &Output) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error: cannot write results"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn batch_output_into_a_closed_pipe_exits_quietly() {
    let queries = large_batch("broken-pipe.txt");
    let (first, out) = into_closed_pipe(&[
        "minimize",
        "--batch",
        queries.to_str().unwrap(),
        "--ic",
        "Book -> Publisher",
    ]);
    assert_eq!(first, "Book*/Title\n");
    assert_quiet_exit(&out);
}

#[test]
fn closure_into_a_closed_pipe_exits_quietly() {
    // The closure of a 120-type `->>` chain is 7,140 lines (about 87 KB),
    // more than any pipe buffer holds.
    let chain: Vec<String> = (0..119).map(|i| format!("t{i} ->> t{}\n", i + 1)).collect();
    let ics = temp_file("chain-ics.txt", &chain.concat());
    let (first, out) = into_closed_pipe(&["closure", "--constraints", ics.to_str().unwrap()]);
    assert_eq!(first, "t0 ->> t1\n");
    assert_quiet_exit(&out);
}

#[cfg(target_os = "linux")]
#[test]
fn batch_write_failure_is_a_clean_cli_error() {
    let queries = large_batch("full-device.txt");
    let out = into_a_full_device(&[
        "minimize",
        "--batch",
        queries.to_str().unwrap(),
        "--ic",
        "Book -> Publisher",
    ]);
    assert_write_error(&out);
}

/// A document whose `match 'b*'` answers (about 500 KB) and repaired XML
/// (about 300 KB) overflow any pipe buffer.
fn large_document(name: &str) -> std::path::PathBuf {
    temp_file(name, &format!("<a>{}</a>", "<b/>".repeat(20_000)))
}

#[test]
fn match_and_repair_into_a_closed_pipe_exit_quietly() {
    let doc = large_document("broken-pipe.xml");
    let doc = doc.to_str().unwrap();
    let (first, out) = into_closed_pipe(&["match", "b*", doc]);
    assert_eq!(first, "20000 answer(s)\n");
    assert_quiet_exit(&out);
    let (first, out) = into_closed_pipe(&["repair", "--doc", doc, "--ic", "b -> c"]);
    assert_eq!(first, "<a>\n");
    assert_quiet_exit(&out);
}

#[cfg(target_os = "linux")]
#[test]
fn match_and_repair_write_failures_are_clean_cli_errors() {
    let doc = large_document("full-device.xml");
    let doc = doc.to_str().unwrap();
    assert_write_error(&into_a_full_device(&["match", "b*", doc]));
    assert_write_error(&into_a_full_device(&["match", "b*", doc, "--count"]));
    assert_write_error(&into_a_full_device(&["repair", "--doc", doc, "--ic", "b -> c"]));
}

#[test]
fn repair_streams_the_same_bytes_as_the_in_memory_writer() {
    // `tpq repair` reads and writes the document streamed; its output must
    // equal the in-memory round trip byte for byte. The documents are the
    // `xml_catalog` example's catalog, a repaired golden of CI's smoke step
    // and a generated document with attributes.
    use tpq::constraints::repair;
    use tpq::data::{stream_xml_to, write_xml, XmlStreamSpec};
    let catalog = "<Articles><Article><Title/><Section><Paragraph/></Section></Article>\
        <Article><Title/><Section><Paragraph/><Section><Paragraph/></Section></Section></Article>\
        <Article><Title/></Article></Articles>";
    let org = r#"<Org><Dept><Manager pid="1"/><DBProject/><Dept><Manager/></Dept></Dept><Dept><DBProject/></Dept></Org>"#;
    let mut generated = Vec::new();
    stream_xml_to(
        &XmlStreamSpec { nodes: 400, seed: 3, ..XmlStreamSpec::default() },
        &mut generated,
    )
    .unwrap();
    let generated = String::from_utf8(generated).unwrap();
    for (name, xml, ics) in [
        ("catalog", catalog, "Article -> Title\nArticle ->> Paragraph\nSection ->> Paragraph\n"),
        ("org", org, "Dept -> Manager\nDept -> Budget\n"),
        ("generated", &generated, "t0 -> t1\nt1 ->> t2\nt2 ~ t3\n"),
    ] {
        let doc = temp_file(&format!("repair-{name}.xml"), xml);
        let ics_file = temp_file(&format!("repair-{name}.ics"), ics);
        let out = tpq(&[
            "repair",
            "--doc",
            doc.to_str().unwrap(),
            "--constraints",
            ics_file.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        let mut types = tpq::prelude::TypeInterner::new();
        let parsed = tpq::prelude::parse_xml(xml, &mut types).unwrap();
        let closed = tpq::prelude::parse_constraints(ics, &mut types).unwrap().closure();
        let want = write_xml(&repair(&parsed, &closed).unwrap(), &types);
        assert_eq!(stdout(&out), want, "{name}");
    }
}

/// A heavy spine query: quadratic table builds make it far slower than a
/// 1 ms deadline on any machine.
fn pathological_query(nodes: usize) -> String {
    let mut s = String::from("a*");
    for i in 0..nodes {
        s.push_str(if i % 2 == 0 { "//b" } else { "/a" });
    }
    s
}

#[test]
fn minimize_deadline_exceeded_exits_cleanly() {
    let out = tpq(&["minimize", "--query", &pathological_query(3000), "--deadline-ms", "1"]);
    assert!(!out.status.success(), "a 1 ms deadline must trip");
    let err = stderr(&out);
    assert!(err.contains("budget error"), "{err}");
    assert!(err.contains("deadline"), "{err}");
}

#[test]
fn minimize_budget_exhausted_exits_cleanly() {
    let out = tpq(&["minimize", "--query", "a*[/b][/c]", "--budget", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("step budget"), "{}", stderr(&out));
}

/// A 30k-node spine of distinct types: the engine's bitset tables for it
/// would take about 450 MB. Under a budget the build must trip before
/// allocating them; a 200 MB address-space limit turns any such
/// allocation into an abort.
#[test]
fn budget_trips_before_the_images_tables_are_allocated() {
    let spine: Vec<String> = (0..30_000).map(|i| format!("t{i}")).collect();
    let queries = temp_file("distinct-spine.txt", &format!("{}\n", spine.join("/")));
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 200000 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_tpq"))
        .args(["minimize", "--strategy", "acim", "--jobs", "1", "--budget", "100000000"])
        .arg("--batch")
        .arg(&queries)
        .output()
        .expect("sh runs");
    let (text, err) = (stdout(&out), stderr(&out));
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(text.starts_with("# error: budget error: step budget"), "{text}{err}");
    std::fs::remove_file(queries).ok();
}

#[test]
fn batch_deadline_reports_per_query_errors_and_exit_one() {
    let queries = temp_file(
        "slow-queries.txt",
        &format!("{}\n{}\n", pathological_query(3000), pathological_query(2500)),
    );
    let out =
        tpq(&["minimize", "--batch", queries.to_str().unwrap(), "--deadline-ms", "1", "--stats"]);
    assert!(!out.status.success(), "timed-out batch must exit nonzero");
    let text = stdout(&out);
    // One stdout line per query, each a clean commented error.
    assert_eq!(text.trim().lines().count(), 2, "{text}");
    for line in text.trim().lines() {
        assert!(line.starts_with("# error:"), "{line}");
        assert!(line.contains("budget error"), "{line}");
    }
    let err = stderr(&out);
    assert!(err.contains("2 failed"), "{err}");
    assert!(err.contains("2 of 2 queries failed"), "{err}");
}

#[test]
fn batch_deadline_fails_every_copy_of_a_repeated_query() {
    let slow = pathological_query(3000);
    let queries = temp_file("slow-repeats.txt", &format!("{slow}\n {slow}\n{slow}\n"));
    let out =
        tpq(&["minimize", "--batch", queries.to_str().unwrap(), "--deadline-ms", "1", "--stats"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 3, "{text}");
    for line in text.lines() {
        assert!(line.starts_with("# error: budget error"), "{line}");
    }
    let err = stderr(&out);
    assert!(err.contains("3 queries (1 unique) | cache 2 hit / 1 miss"), "{err}");
    assert!(err.contains("| 3 failed |"), "{err}");
    assert!(err.contains("3 of 3 queries failed"), "{err}");
}

#[test]
fn generous_limits_do_not_disturb_results() {
    let out = tpq(&[
        "minimize",
        "--query",
        "Book*[/Title][/Publisher]",
        "--ic",
        "Book -> Publisher",
        "--deadline-ms",
        "60000",
        "--budget",
        "100000000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "Book*/Title");
}

#[test]
fn failpoint_env_injects_a_deterministic_fault() {
    let out = Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(["minimize", "--query", "a*[/b]"])
        .env("TPQ_FAILPOINT", "parse.pattern=err")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("injected fault at failpoint 'parse.pattern'"),
        "{}",
        stderr(&out)
    );
    // Every matcher that passes `match.build` reports the fault as an
    // error, not as a panic.
    let doc = temp_file("fp-org.xml", "<Dept><Manager/></Dept>");
    let doc = doc.to_str().unwrap();
    for extra in [&[][..], &["--engine", "embed"], &["--count"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tpq"))
            .args(["match", "Dept*//Manager", doc])
            .args(extra)
            .env("TPQ_FAILPOINT", "match.build=err")
            .output()
            .expect("binary runs");
        let code = out.status.code();
        assert!(code.is_some_and(|c| c != 0 && c != 101), "{extra:?}: exit {code:?}");
        let err = stderr(&out);
        assert!(err.contains("injected fault at failpoint 'match.build'"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?}: {err}");
    }
    // Bad specs are ignored (fail-open), and an unrelated name is inert.
    let out = Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(["minimize", "--query", "a*[/b]"])
        .env("TPQ_FAILPOINT", "chase.step=panic@999999")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn serve_round_trips_requests_and_shuts_down_cleanly() {
    use std::io::{BufRead as _, BufReader, Read as _};
    let mut child = Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    // The first stdout line announces the bound address.
    let mut child_stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    child_stdout.read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("listening on ").unwrap_or_else(|| {
        panic!("unexpected banner {banner:?}");
    });

    let stream = std::net::TcpStream::connect(addr).expect("connect to serve");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let mut conn = BufReader::new(stream);
    let mut round_trip = |line: &str| -> String {
        writeln!(conn.get_mut(), "{line}").unwrap();
        let mut response = String::new();
        conn.read_line(&mut response).unwrap();
        response.trim_end().to_owned()
    };
    let response =
        round_trip(r#"{"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}"#);
    assert!(response.contains(r#""minimized":"Book*/Title""#), "{response}");
    let stats = round_trip("STATS");
    assert!(stats.contains("\"uptime_ms\""), "{stats}");
    let ack = round_trip("SHUTDOWN");
    assert!(ack.contains("\"draining\":true"), "{ack}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve should exit 0 after SHUTDOWN");
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("1 connections"), "{err}");
    assert!(err.contains("1 requests ok"), "{err}");
}

#[test]
fn serve_rejects_bad_flags() {
    let out = tpq(&["serve", "--max-conns", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--max-conns"), "{}", stderr(&out));
    let out = tpq(&["serve", "--addr", "definitely-not-an-address"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot bind"), "{}", stderr(&out));
}

#[test]
fn bad_governance_flags_are_rejected() {
    let out = tpq(&["minimize", "--query", "a*", "--deadline-ms", "soon"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--deadline-ms"), "{}", stderr(&out));
    let out = tpq(&["minimize", "--query", "a*", "--budget", "-3"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--budget"), "{}", stderr(&out));
}

#[test]
fn explain_names_a_constraint_or_witness_per_deleted_node() {
    // The Figure 2 ACIM example: three deletions, each justified.
    let out = tpq(&[
        "explain",
        "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
        "--ic",
        "Section ->> Paragraph",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("Articles/Article*//Section"));
    let summary = lines.next().expect("summary line");
    assert!(summary.contains("3 deleted"), "{summary}");
    assert!(summary.contains("trace "), "{summary}");
    let deletions: Vec<&str> = lines.filter(|l| l.trim_start().starts_with("- ")).collect();
    assert_eq!(deletions.len(), 3, "{text}");
    for line in &deletions {
        assert!(
            line.contains("Section ->> Paragraph") || line.contains("folds it onto"),
            "deletion line lacks a constraint or witness: {line}"
        );
    }
    assert!(text.contains("CDM rule 2"), "{text}");
    assert!(text.contains("IC-implied Paragraph"), "{text}");
}

/// `tpq explain` on the paper-figure queries (`tests/paper_figures.rs`):
/// the minimized query and every deletion line, witnesses included, as
/// the list-based images tables produced them. The bitset tables must
/// pick the same witnesses. The `cim` rows are the rebuild-per-test
/// CIM's output, which the engine must reproduce; CIM ignores the
/// constraints they pass.
#[test]
fn explain_paper_figures_golden() {
    const FIG2A: &str = "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph";
    const FIG2B: &str = "Articles[/Article//Paragraph]/Article*//Section//Paragraph";
    const FIG2F: &str = "Organization*[/Employee//Project][/PermEmp//DBproject]";
    const FIG2F_ICS: &[&str] = &["PermEmp ~ Employee", "DBproject ~ Project"];
    const BOOK: &str = "Book*[/Title][/Author][/Publisher]";
    let cases: &[(&str, &[&str], &str, &[&str])] = &[
        (
            FIG2A,
            &["Article -> Title", "Section ->> Paragraph"],
            "full",
            &[
                "Articles/Article*//Section",
                "  - Paragraph (node 6): CDM rule 2 at Section (node 5): Section ->> Paragraph",
                "  - Title (node 4): CDM rule 1 at Article (node 3): Article -> Title",
                "  - Paragraph (node 2): CIM folds it onto the IC-implied Paragraph under Section (node 5), chase: Section ->> Paragraph",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            FIG2A,
            &["Article -> Title", "Section ->> Paragraph"],
            "acim",
            &[
                "Articles/Article*//Section",
                "  - Paragraph (node 2): CIM folds it onto Paragraph (node 6)",
                "  - Title (node 4): CIM folds it onto the IC-implied Title under Article (node 3), chase: Article -> Title",
                "  - Paragraph (node 6): CIM folds it onto the IC-implied Paragraph under Section (node 5), chase: Section ->> Paragraph",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            FIG2B,
            &["Section ->> Paragraph"],
            "full",
            &[
                "Articles/Article*//Section",
                "  - Paragraph (node 5): CDM rule 2 at Section (node 4): Section ->> Paragraph",
                "  - Paragraph (node 2): CIM folds it onto the IC-implied Paragraph under Section (node 4), chase: Section ->> Paragraph",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            FIG2B,
            &["Section ->> Paragraph"],
            "acim",
            &[
                "Articles/Article*//Section",
                "  - Paragraph (node 2): CIM folds it onto Paragraph (node 5)",
                "  - Paragraph (node 5): CIM folds it onto the IC-implied Paragraph under Section (node 4), chase: Section ->> Paragraph",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            "Articles[/Article//Paragraph]/Article*//Section",
            &["Section ->> Paragraph"],
            "full",
            &[
                "Articles/Article*//Section",
                "  - Paragraph (node 2): CIM folds it onto the IC-implied Paragraph under Section (node 4), chase: Section ->> Paragraph",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            FIG2F,
            FIG2F_ICS,
            "full",
            &[
                "Organization*/PermEmp//DBproject",
                "  - Project (node 2): CIM folds it onto DBproject (node 4)",
                "  - Employee (node 1): CIM folds it onto PermEmp (node 3)",
            ],
        ),
        (
            "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
            &[],
            "full",
            &[
                "OrgUnit*/Dept/Researcher//DBProject",
                "  - DBProject (node 5): CIM folds it onto DBProject (node 3)",
                "  - Dept (node 4): CIM folds it onto Dept (node 1)",
            ],
        ),
        (
            "Dept*[//DBProject]//Manager//DBProject",
            &[],
            "full",
            &[
                "Dept*//Manager//DBProject",
                "  - DBProject (node 1): CIM folds it onto DBProject (node 3)",
            ],
        ),
        (
            BOOK,
            &["Book -> Publisher"],
            "full",
            &[
                "Book*[/Title]/Author",
                "  - Publisher (node 3): CDM rule 1 at Book (node 0): Book -> Publisher",
            ],
        ),
        (
            BOOK,
            &["Book -> Publisher"],
            "acim",
            &[
                "Book*[/Title]/Author",
                "  - Publisher (node 3): CIM folds it onto the IC-implied Publisher under Book (node 0), chase: Book -> Publisher",
            ],
        ),
        (
            "a*[/b/c][/b[/c][/d]]",
            &[],
            "full",
            &[
                "a*/b[/c]/d",
                "  - c (node 2): CIM folds it onto c (node 4)",
                "  - b (node 1): CIM folds it onto b (node 3)",
            ],
        ),
        (
            FIG2A,
            &["Article -> Title", "Section ->> Paragraph"],
            "cim",
            &[
                "Articles/Article*[/Title]//Section//Paragraph",
                "  - Paragraph (node 2): CIM folds it onto Paragraph (node 6)",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (
            FIG2B,
            &[],
            "cim",
            &[
                "Articles/Article*//Section//Paragraph",
                "  - Paragraph (node 2): CIM folds it onto Paragraph (node 5)",
                "  - Article (node 1): CIM folds it onto Article (node 3)",
            ],
        ),
        (FIG2F, FIG2F_ICS, "cim", &["Organization*[/Employee//Project]/PermEmp//DBproject"]),
        (
            "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
            &[],
            "cim",
            &[
                "OrgUnit*/Dept/Researcher//DBProject",
                "  - DBProject (node 5): CIM folds it onto DBProject (node 3)",
                "  - Dept (node 4): CIM folds it onto Dept (node 1)",
            ],
        ),
        (
            "Dept*[//DBProject]//Manager//DBProject",
            &[],
            "cim",
            &[
                "Dept*//Manager//DBProject",
                "  - DBProject (node 1): CIM folds it onto DBProject (node 3)",
            ],
        ),
        (BOOK, &["Book -> Publisher"], "cim", &["Book*[/Title][/Author]/Publisher"]),
        (
            "a*[/b/c][/b[/c][/d]]",
            &[],
            "cim",
            &[
                "a*/b[/c]/d",
                "  - c (node 2): CIM folds it onto c (node 4)",
                "  - b (node 1): CIM folds it onto b (node 3)",
            ],
        ),
    ];
    for &(query, ics, strategy, want) in cases {
        let mut args = vec!["explain", query, "--strategy", strategy];
        for ic in ics {
            args.extend(["--ic", ic]);
        }
        let out = tpq(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        let text = stdout(&out);
        let got: Vec<&str> =
            text.lines().enumerate().filter(|&(i, _)| i != 1).map(|(_, l)| l).collect();
        assert_eq!(got, want, "{query} --strategy {strategy}");
    }
}

#[test]
fn explain_dumps_decision_events_as_json_lines() {
    let out = tpq(&["explain", "Dept*[//DBProject]//Manager//DBProject", "--events"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let events = stderr(&out);
    let prune = events
        .lines()
        .find(|l| l.contains("cim.prune"))
        .unwrap_or_else(|| panic!("no cim.prune event in {events:?}"));
    let json = tpq::base::Json::parse(prune).expect("event line is JSON");
    assert!(json.get("trace").and_then(tpq::base::Json::as_str).is_some());
    let fields = json.get("fields").expect("fields");
    assert!(fields.get("witness").is_some());
}

#[test]
fn options_a_subcommand_does_not_read_are_rejected_by_name() {
    // Removed serve options, and a misspelling that used to be ignored.
    for (args, name) in [
        (&["serve", "--threaded"][..], "--threaded"),
        (&["serve", "--slow-ms", "5"], "--slow-ms"),
        (&["serve", "--slow-log", "slow.jsonl"], "--slow-log"),
        (&["minimize", "--query", "a*[/b]", "--strateg", "cim"], "--strateg"),
    ] {
        let out = tpq(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(stderr(&out).contains(&format!("unknown option {name}")), "{}", stderr(&out));
    }
}
