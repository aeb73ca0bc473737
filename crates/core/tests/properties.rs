//! Property-based tests for the muppet-core primitives.

use muppet_core::codec;
use muppet_core::event::{Event, Key};
use muppet_core::json::{self, Field, Json};
use muppet_core::operator::{Emitter, FnMapper, FnUpdater};
use muppet_core::reference::ReferenceExecutor;
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;
use proptest::prelude::*;

// ---------- codec ----------

proptest! {
    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        codec::put_varint(&mut buf, v);
        let (got, n) = codec::get_varint(&buf).unwrap();
        prop_assert_eq!(got, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn varint_encoding_is_minimal_and_ordered_by_length(a in any::<u64>(), b in any::<u64>()) {
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        codec::put_varint(&mut ba, a);
        codec::put_varint(&mut bb, b);
        if a <= b {
            prop_assert!(ba.len() <= bb.len());
        }
    }

    #[test]
    fn len_prefixed_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = Vec::new();
        codec::put_len_prefixed(&mut buf, &data);
        let (got, n) = codec::get_len_prefixed(&buf).unwrap();
        prop_assert_eq!(got, &data[..]);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn concatenated_records_parse_back(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 0..20)) {
        let mut buf = Vec::new();
        for c in &chunks {
            codec::put_len_prefixed(&mut buf, c);
        }
        let mut rest: &[u8] = &buf;
        let mut out = Vec::new();
        while !rest.is_empty() {
            let (bytes, n) = codec::get_len_prefixed(rest).unwrap();
            out.push(bytes.to_vec());
            rest = &rest[n..];
        }
        prop_assert_eq!(out, chunks);
    }

    #[test]
    fn crc_differs_on_any_single_bitflip(data in proptest::collection::vec(any::<u8>(), 1..256),
                                         bit in any::<usize>()) {
        let base = codec::crc32c(&data);
        let mut flipped = data.clone();
        let idx = bit % (data.len() * 8);
        flipped[idx / 8] ^= 1 << (idx % 8);
        prop_assert_ne!(codec::crc32c(&flipped), base);
    }
}

// ---------- JSON ----------

fn arb_json(depth: u32) -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, non-extreme doubles: the serializer maps non-finite to null.
        (-1.0e12f64..1.0e12).prop_map(Json::Num),
        any::<i32>().prop_map(|n| Json::Num(n as f64)),
        "[a-zA-Z0-9 _\\-\"\\\\/\n\t\u{e9}\u{1F600}]{0,24}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6)
                .prop_map(|pairs| Json::Obj(pairs.into_iter().collect())),
        ]
    })
}

proptest! {
    #[test]
    fn json_compact_roundtrips(v in arb_json(4)) {
        let text = v.to_compact();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(&back, &v, "text: {}", text);
    }

    #[test]
    fn json_pretty_roundtrips(v in arb_json(3)) {
        let text = v.to_pretty();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_serialization_is_deterministic(v in arb_json(3)) {
        prop_assert_eq!(v.to_compact(), v.to_compact());
    }

    #[test]
    fn json_parser_never_panics_on_garbage(text in "\\PC{0,64}") {
        let _ = Json::parse(&text);
    }

    #[test]
    fn json_parser_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Json::parse_bytes(&bytes);
    }
}

// ---------- MBF binary codec ----------

proptest! {
    /// Any document the generator produces survives encode → decode
    /// exactly — including deep nesting up to the generator's recursion
    /// budget and unicode strings.
    #[test]
    fn mbf_roundtrips_documents_exactly(v in arb_json(6)) {
        let encoded = v.to_mbf().unwrap();
        prop_assert_eq!(Json::from_mbf(&encoded).unwrap(), v);
    }

    /// Cross-codec equivalence: decoding the MBF payload and parsing the
    /// canonical JSON text yield the same document, and `from_payload`
    /// picks the right decoder for both byte shapes unaided.
    #[test]
    fn mbf_and_json_text_decode_to_the_same_document(v in arb_json(4)) {
        let via_mbf = Json::from_payload(&v.to_mbf().unwrap()).unwrap();
        let via_text = Json::from_payload(v.to_compact().as_bytes()).unwrap();
        prop_assert_eq!(&via_mbf, &via_text);
        prop_assert_eq!(via_mbf, v);
    }

    /// Number policy: finite doubles round-trip to an equal value;
    /// NaN/±∞ encode as null — exactly the JSON text serializer's policy,
    /// so the two codecs never disagree about a document.
    #[test]
    fn mbf_number_policy_matches_json_text(n in any::<f64>()) {
        let back = Json::from_mbf(&Json::Num(n).to_mbf().unwrap()).unwrap();
        if n.is_finite() {
            prop_assert_eq!(back, Json::Num(n));
        } else {
            prop_assert_eq!(back, Json::Null);
        }
    }

    /// Every strict prefix of a valid payload is rejected — the decoder
    /// runs out of bytes or trips the trailing-consumption check. Never a
    /// panic, never a silently short document.
    #[test]
    fn mbf_truncation_is_an_error_never_a_panic(v in arb_json(3), cut in any::<u64>()) {
        let encoded = v.to_mbf().unwrap();
        let cut = (cut as usize) % encoded.len();
        prop_assert!(Json::from_mbf(&encoded[..cut]).is_err());
    }

    /// Corrupting one byte never panics the decoder; whatever it returns
    /// is reached cleanly. (A flip can be semantically invisible — e.g.
    /// inside a string — so "always an error" would be too strong.)
    #[test]
    fn mbf_corruption_never_panics(v in arb_json(3), at in any::<u64>(), flip in 1u8..=255) {
        let mut encoded = v.to_mbf().unwrap();
        let at = (at as usize) % encoded.len();
        encoded[at] ^= flip;
        let _ = Json::from_mbf(&encoded);
    }

    /// Random bytes behind a forged magic byte never panic the decoder
    /// and never allocate past the buffer's possible content.
    #[test]
    fn mbf_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::from_mbf(&bytes);
        let mut forged = vec![0xB1u8];
        forged.extend_from_slice(&bytes);
        let _ = Json::from_mbf(&forged);
    }

    /// Encoding is deterministic: the byte payload is a pure function of
    /// the document (the store dedups and the wire batches on this).
    #[test]
    fn mbf_encoding_is_deterministic(v in arb_json(4)) {
        prop_assert_eq!(v.to_mbf().unwrap(), v.to_mbf().unwrap());
    }
}

// ---------- field scanner ----------

/// The scanner's contract against the tree: the same accept set, and for
/// each requested name the first match `Json::get` finds — nested objects
/// and arrays re-scanned member by member.
fn assert_scan_agrees<const N: usize>(payload: &[u8], names: [&str; N]) {
    let tree = Json::from_payload(payload);
    let scanned = json::scan(payload, names);
    assert_eq!(tree.is_ok(), scanned.is_ok(), "accept sets differ on {payload:?}");
    if let (Ok(tree), Ok(fields)) = (tree, scanned) {
        for (name, field) in names.iter().zip(fields) {
            assert_field_eq(tree.get(name), field);
        }
    }
}

fn assert_field_eq(want: Option<&Json>, got: Option<Field<'_>>) {
    let (want, got) = match (want, got) {
        (None, None) => return,
        (Some(want), Some(got)) => (want, got),
        (want, got) => panic!("presence differs: {want:?} vs {got:?}"),
    };
    assert_eq!((got.as_u64(), got.as_i64()), (want.as_u64(), want.as_i64()), "number rule");
    if let Some(raw) = got.as_obj() {
        for (key, _) in want.as_obj().unwrap() {
            let [member] = raw.fields([key.as_str()]);
            assert_field_eq(want.get(key), member);
        }
    }
    if let Some(raw) = got.as_arr() {
        let mut items = Vec::new();
        raw.items(|item| items.push(item));
        assert_eq!(items.len(), want.as_arr().unwrap().len());
        for (want, got) in want.as_arr().unwrap().iter().zip(items) {
            assert_field_eq(Some(want), Some(got));
        }
    }
    // Debug, not `==`: a flipped MBF f64 can be NaN on both sides.
    assert_eq!(format!("{:?}", got.into_json().unwrap()), format!("{want:?}"));
}

/// What the apps scan and store: a tweet (and one with escapes, an
/// escaped key among them), a checkin, a web request, the payloads between
/// operators, and one slate of each app.
const CORPUS: &[&str] = &[
    r#"{"id":41,"user":"user-7","text":"synthetic tweet #41 about music #music","topics":["music"],"retweet_of":"user-2","urls":["http://example.com/page3"]}"#,
    r#"{"id":42,"\u0075ser":"user-8","text":"a \"quoted\" caf\u00e9 \ud83d\ude00","topics":[],"reply_to":"user-1","user":"second"}"#,
    r#"{"id":48213,"user":"user-417","venue":{"name":"Walmart Supercenter","lat":37.31415926535,"lng":-122.27182818284}}"#,
    r#"{"path":"/news/item-12","section":"news","status":404,"bytes":5120}"#,
    r#"{"delta":5,"reason":"retweeted"}"#,
    r#"{"ts":1700000000000}"#,
    r#"{"count":17,"ts":1700000000000}"#,
    r#"{"url":"http://example.com/page3","count":12}"#,
    r#"{"score":9,"events":4}"#,
    "17",
    r#"{"count":17,"day":15170}"#,
    r#"{"total_count":412,"days":3,"last_day":15170,"today_count":17,"emitted_day":null}"#,
    r#"{"k":10,"top":[{"url":"http://example.com/page3","count":12},{"url":"http://example.com/page9","count":7}]}"#,
    r#"{"count":6,"status":{"2xx":2,"3xx":1,"4xx":1,"5xx":2},"bytes":60}"#,
    r#"{"count":41,"unreported":3}"#,
];

/// Every name an app operator reads, plus the slates' containers.
const NAMES: [&str; 14] = [
    "user",
    "retweet_of",
    "reply_to",
    "topics",
    "urls",
    "venue",
    "status",
    "bytes",
    "delta",
    "ts",
    "count",
    "url",
    "top",
    "emitted_day",
];

#[test]
fn scanner_and_tree_agree_on_every_cut_and_bit_flip_of_the_corpus() {
    for text in CORPUS {
        let mbf = Json::parse(text).unwrap().to_mbf().unwrap();
        for doc in [text.as_bytes(), &mbf] {
            for cut in 0..=doc.len() {
                assert_scan_agrees(&doc[..cut], NAMES);
            }
            for bit in 0..doc.len() * 8 {
                let mut flipped = doc.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_scan_agrees(&flipped, NAMES);
            }
        }
    }
}

/// Keys from a two-letter alphabet plus `"` (which JSON text escapes):
/// duplicates are common, and the first must win.
const KEY: &str = "[ab\"]{1,2}";

/// Numbers at the 2⁵³ boundary, where the integer views turn.
fn arb_boundary() -> impl Strategy<Value = Json> {
    (-2i64..=2, any::<bool>()).prop_map(|(d, neg)| {
        let n = 2f64.powi(53) + d as f64;
        Json::Num(if neg { -n } else { n })
    })
}

/// A key as JSON text, optionally spelled entirely in `\u` escapes.
fn key_text(key: &str, escaped: bool) -> String {
    if escaped {
        format!("\"{}\"", key.encode_utf16().map(|u| format!("\\u{u:04x}")).collect::<String>())
    } else {
        Json::str(key).to_compact()
    }
}

proptest! {
    #[test]
    fn scanner_and_tree_agree_on_arbitrary_documents(
        members in proptest::collection::vec(
            (KEY, prop_oneof![arb_json(2), arb_boundary()], any::<bool>()), 0..6),
        names in (KEY, KEY, KEY),
        root in arb_json(3),
    ) {
        let text: Vec<String> =
            members.iter().map(|(k, v, esc)| format!("{}:{}", key_text(k, *esc), v.to_compact())).collect();
        let doc = Json::Obj(members.into_iter().map(|(k, v, _)| (k, v)).collect());
        for payload in [
            format!("{{{}}}", text.join(",")).into_bytes(),
            doc.to_mbf().unwrap(),
            root.to_compact().into_bytes(),
            root.to_mbf().unwrap(),
        ] {
            assert_scan_agrees(&payload, [names.0.as_str(), names.1.as_str(), names.2.as_str()]);
        }
    }
}

// ---------- events & slates ----------

/// One step of a slate mutation sequence, applied through the resident
/// API on one slate and through the seed-style byte path on the other.
#[derive(Clone, Debug)]
enum SlateOp {
    /// `obj_mut_or` + `set` — the migrated-app hot path.
    ObjSet(String, i64),
    /// Nested mutation through `get_mut` (http_counters-style).
    ObjSetNested(String, String, i64),
    /// Wholesale JSON replacement.
    SetJson(Json),
    /// Raw byte replacement (Figure 4's `replaceSlate`).
    Replace(Vec<u8>),
    /// Decimal-counter increment (retailer-style slates).
    Incr(u64),
    /// TTL expiry / deletion.
    Clear,
    /// A read-only residency conversion (HTTP read through the cache).
    EnsureJson,
}

fn arb_slate_op() -> impl Strategy<Value = SlateOp> {
    prop_oneof![
        ("[a-c]", -1000i64..1000).prop_map(|(k, v)| SlateOp::ObjSet(k, v)),
        ("[a-c]", "[x-z]", -1000i64..1000).prop_map(|(k, j, v)| SlateOp::ObjSetNested(k, j, v)),
        arb_json(2).prop_map(SlateOp::SetJson),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(SlateOp::Replace),
        (1u64..100).prop_map(SlateOp::Incr),
        Just(SlateOp::Clear),
        Just(SlateOp::EnsureJson),
    ]
}

fn obj_default() -> Json {
    Json::obj([("seed", Json::num(0))])
}

fn mutate_doc(doc: &mut Json, op: &SlateOp) {
    match op {
        SlateOp::ObjSet(k, v) => doc.set(k.clone(), Json::num(*v as f64)),
        SlateOp::ObjSetNested(k, j, v) => {
            if doc.get(k).and_then(Json::as_obj).is_none() {
                doc.set(k.clone(), Json::obj::<String>([]));
            }
            doc.get_mut(k).expect("just ensured").set(j.clone(), Json::num(*v as f64));
        }
        _ => unreachable!("only object ops mutate documents"),
    }
}

/// The new hot path: resident document, mutated in place, serialized only
/// when `bytes()` is observed.
fn apply_resident(slate: &mut Slate, op: &SlateOp) {
    match op {
        SlateOp::ObjSet(..) | SlateOp::ObjSetNested(..) => {
            mutate_doc(slate.obj_mut_or(obj_default), op)
        }
        SlateOp::SetJson(v) => slate.set_json(v.clone()),
        SlateOp::Replace(bytes) => slate.replace(bytes.clone()),
        SlateOp::Incr(n) => {
            slate.incr_counter(*n);
        }
        SlateOp::Clear => slate.clear(),
        SlateOp::EnsureJson => {
            let _ = slate.ensure_json();
        }
    }
}

/// The seed path: every mutation crosses the byte boundary — parse the
/// payload, rebuild, serialize back.
fn apply_plain(slate: &mut Slate, op: &SlateOp) {
    match op {
        SlateOp::ObjSet(..) | SlateOp::ObjSetNested(..) => {
            let mut doc = match slate.as_json() {
                Some(v @ Json::Obj(_)) => v,
                _ => obj_default(),
            };
            mutate_doc(&mut doc, op);
            slate.replace(doc.to_compact().into_bytes());
        }
        SlateOp::SetJson(v) => slate.replace(v.to_compact().into_bytes()),
        SlateOp::Replace(bytes) => slate.replace(bytes.clone()),
        SlateOp::Incr(n) => {
            slate.incr_counter(*n);
        }
        SlateOp::Clear => slate.clear(),
        SlateOp::EnsureJson => {} // a read; no byte-path analogue needed
    }
}

proptest! {
    #[test]
    fn event_order_is_total_and_consistent(
        ts1 in 0u64..1000, seq1 in 0u64..1000,
        ts2 in 0u64..1000, seq2 in 0u64..1000,
    ) {
        let mut a = Event::new("S", ts1, Key::from("k"), "");
        a.seq = seq1;
        let mut b = Event::new("S", ts2, Key::from("k"), "");
        b.seq = seq2;
        let cmp = a.order().cmp(&b.order());
        prop_assert_eq!(b.order().cmp(&a.order()), cmp.reverse());
        if ts1 < ts2 {
            prop_assert_eq!(cmp, std::cmp::Ordering::Less, "ts dominates");
        }
    }

    #[test]
    fn slate_counter_accumulates(increments in proptest::collection::vec(1u64..100, 0..50)) {
        let mut s = Slate::empty();
        let mut expect = 0u64;
        for inc in &increments {
            expect += inc;
            prop_assert_eq!(s.incr_counter(*inc), expect);
        }
        prop_assert_eq!(s.counter(), expect);
        prop_assert_eq!(s.version(), increments.len() as u64);
    }

    // ---------- resident-JSON slate ≡ plain-bytes slate ----------
    //
    // The hot-path tentpole: a slate holding a resident parsed document
    // must be observationally byte-identical to one that crosses the byte
    // boundary on every mutation (the seed path) — store flushes, HTTP
    // reads, wire transfers all read `bytes()`/`to_shared()`, so any
    // divergence here forks persisted state.

    #[test]
    fn resident_slate_equals_bytes_slate_under_mutations(
        ops in proptest::collection::vec(arb_slate_op(), 0..40),
    ) {
        let mut resident = Slate::empty();
        let mut plain = Slate::empty();
        for op in &ops {
            apply_resident(&mut resident, op);
            apply_plain(&mut plain, op);
            // Every step is a potential flush/HTTP-read boundary.
            prop_assert_eq!(resident.bytes(), plain.bytes(), "op: {:?}", op);
            prop_assert_eq!(resident.is_empty(), plain.is_empty());
            prop_assert_eq!(resident.len(), plain.len());
            prop_assert_eq!(resident.to_shared().as_ref(), plain.to_shared().as_ref());
            prop_assert_eq!(resident.as_json(), plain.as_json());
        }
    }

    #[test]
    fn resident_conversion_never_changes_flushed_bytes(v in arb_json(3)) {
        // Reading a slate into residency (ensure_json) is not a mutation:
        // the bytes it flushes afterwards are exactly the bytes it held.
        let payload = v.to_compact().into_bytes();
        let mut s = Slate::from_bytes(payload.clone());
        let _ = s.ensure_json();
        prop_assert_eq!(s.bytes(), payload.as_slice());
        prop_assert_eq!(s.version(), 0);
    }

    #[test]
    fn key_route_hash_is_stable_and_operator_sensitive(key in "[a-z0-9]{1,16}") {
        let k = Key::from(key.as_str());
        prop_assert_eq!(k.route_hash("U1"), k.route_hash("U1"));
        prop_assert_ne!(k.route_hash("U1"), k.route_hash("U2"));
    }
}

// ---------- reference executor determinism ----------

fn count_workflow() -> Workflow {
    let mut b = Workflow::builder("prop-count");
    b.external_stream("S1");
    b.mapper_publishing("M1", &["S1"], &["S2"]);
    b.updater("U1", &["S2"]);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary key/timestamp sequences, the reference executor's
    /// per-key counts equal a straightforward HashMap count, and repeated
    /// runs are identical (determinism).
    #[test]
    fn reference_counts_match_model(
        events in proptest::collection::vec(("[a-e]", 0u64..50), 1..200)
    ) {
        let run = |events: &[(String, u64)]| {
            let wf = count_workflow();
            let mut exec = ReferenceExecutor::new(&wf);
            exec.register_mapper(FnMapper::new("M1", |ctx: &mut dyn Emitter, ev: &Event| {
                ctx.publish("S2", ev.key.clone(), ev.value.to_vec());
            }));
            exec.register_updater(FnUpdater::new(
                "U1",
                |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
                    slate.incr_counter(1);
                },
            ));
            for (key, ts) in events {
                exec.push_external("S1", Event::new("S1", *ts, Key::from(key.as_str()), ""));
            }
            exec.run_to_completion().unwrap();
            exec.slates_of("U1")
                .into_iter()
                .map(|(k, s)| (k.as_str().unwrap().to_string(), s.counter()))
                .collect::<Vec<_>>()
        };
        let got = run(&events);
        let again = run(&events);
        prop_assert_eq!(&got, &again, "two runs must be identical");

        let mut model: std::collections::BTreeMap<String, u64> = Default::default();
        for (key, _) in &events {
            *model.entry(key.clone()).or_default() += 1;
        }
        let model: Vec<(String, u64)> = model.into_iter().collect();
        prop_assert_eq!(got, model);
    }
}
