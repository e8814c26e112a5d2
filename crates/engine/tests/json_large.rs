//! Parsing a multi-megabyte document. A test binary of its own, so the
//! tens of MiB it allocates never race the process-wide RSS probes of
//! the library's unit tests.

use engine::JsonValue;

/// A trace-shaped document — tens of thousands of events, each a handful
/// of short strings with escapes and non-ASCII text — parses in linear
/// time and round-trips exactly.
#[test]
fn parse_is_linear_on_large_traces() {
    let events: Vec<JsonValue> = (0..40_000u64)
        .map(|i| {
            JsonValue::object(vec![
                (
                    "name",
                    JsonValue::str(if i % 2 == 0 { "min_cut" } else { "ℒ^s sweep" }),
                ),
                ("cat", JsonValue::str("turbomap")),
                ("ph", JsonValue::str(if i % 2 == 0 { "B" } else { "E" })),
                ("ts", JsonValue::UInt(i * 3)),
                ("pid", JsonValue::UInt(1)),
                ("tid", JsonValue::UInt(i % 4)),
                (
                    "args",
                    JsonValue::object(vec![
                        ("node", JsonValue::UInt(i)),
                        ("note", JsonValue::str(format!("Φ = {i}, \"q\"\t\\ end"))),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = JsonValue::object(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::str("ns")),
    ]);
    let text = doc.render();
    assert!(text.len() > 4 << 20, "document is {} bytes", text.len());
    let start = std::time::Instant::now();
    let parsed = JsonValue::parse(&text).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(parsed, doc);
    // Linear parsing takes well under a second even unoptimized.
    assert!(elapsed.as_secs() < 30, "parse took {elapsed:?}");
}
