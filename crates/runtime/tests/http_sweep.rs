//! The HTTP request decoder under damage, through the function the server
//! runs on every connection (`http::serve_request`): every truncation and
//! every single-byte flip of four valid requests is answered with a known
//! status line, or — only when the request's body is cut short — closed
//! with no answer. Nothing panics, and no request makes the server
//! allocate past the head cap or the body caps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use muppet_core::event::Key;
use muppet_runtime::http::{serve_request, SlateReader};

/// The global allocator, recording the largest single request per thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

const HEAD_CAP: usize = 16 << 10;
const SUBMIT_CAP: usize = 16 << 20;
const JOIN_CAP: usize = 4 << 10;

struct Stub;

impl SlateReader for Stub {
    fn fetch_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        (updater == "U" && key.as_bytes() == b"k").then(|| b"42".to_vec())
    }
    fn metrics_text(&self) -> String {
        String::new()
    }
    fn submit_event(&self, _: &str, _: Key, _: Vec<u8>) -> muppet_core::Result<()> {
        Ok(())
    }
    fn reserve_join(&self, spec: &str) -> Result<String, String> {
        Ok(spec.to_string())
    }
}

/// What one request got: the status code answered (`None`: closed with
/// no answer) and the largest allocation serving it took.
fn serve(request: &[u8]) -> (Option<u16>, usize) {
    LARGEST.with(|largest| largest.set(0));
    let mut out = Vec::new();
    let served =
        catch_unwind(AssertUnwindSafe(|| serve_request(&mut &request[..], &mut out, &Stub)));
    let largest = LARGEST.with(Cell::get);
    assert!(served.is_ok(), "panicked on {:?}", String::from_utf8_lossy(request));
    let text = String::from_utf8_lossy(&out);
    let code = text.strip_prefix("HTTP/1.1 ").map(|rest| rest[..3].parse().unwrap());
    assert_eq!(code.is_none(), out.is_empty(), "one status line or nothing: {text:?}");
    (code, largest)
}

/// Whether `request` declares a longer body than it carries. Its head ends
/// at the first empty line, or at the end of the bytes.
fn body_cut_short(request: &[u8]) -> bool {
    let mut head_end = request.len();
    let mut declared = 0;
    let mut at = 0;
    for line in request.split_inclusive(|&b| b == b'\n') {
        at += line.len();
        if at > line.len() && (line == b"\r\n" || line == b"\n") {
            head_end = at;
            break;
        }
        let text = String::from_utf8_lossy(line).to_ascii_lowercase();
        if let Some(value) = text.strip_prefix("content-length:") {
            declared = value.trim().parse().unwrap_or(0);
        }
    }
    declared > request.len() - head_end
}

#[test]
fn every_truncation_and_byte_flip_is_answered_or_cut_short() {
    let requests: [(&[u8], usize); 4] = [
        (b"GET /membership HTTP/1.1\r\nHost: node\r\n\r\n", HEAD_CAP),
        (b"GET /slate/U/k HTTP/1.1\r\nHost: node\r\n\r\n", HEAD_CAP),
        (b"POST /submit/S/k HTTP/1.1\r\nContent-Length: 12\r\n\r\nhello, world", SUBMIT_CAP),
        (b"POST /join HTTP/1.1\r\nContent-Length: 21\r\n\r\n127.0.0.1:29100:28100", JOIN_CAP),
    ];
    let mut variants = 0;
    for (request, cap) in requests {
        assert_eq!(serve(request).0, Some(200), "{:?}", String::from_utf8_lossy(request));
        let truncations = (0..request.len()).map(|n| request[..n].to_vec());
        let flips = (0..request.len()).flat_map(|i| {
            [0x01, 0x20, 0x80, 0xff].map(|mask| {
                let mut flipped = request.to_vec();
                flipped[i] ^= mask;
                flipped
            })
        });
        for variant in truncations.chain(flips) {
            let shown = String::from_utf8_lossy(&variant).into_owned();
            let (code, largest) = serve(&variant);
            match code {
                Some(code) => {
                    assert!([200, 400, 404, 405, 431, 503].contains(&code), "{code} for {shown:?}")
                }
                None => assert!(body_cut_short(&variant), "no answer to {shown:?}"),
            }
            assert!(largest <= cap.max(HEAD_CAP), "allocated {largest} B for {shown:?}");
            variants += 1;
        }
    }
    assert!(variants > 900, "{variants} variants");
}

#[test]
fn declared_bodies_past_their_caps_are_refused_before_allocating() {
    let submit = format!("POST /submit/S/k HTTP/1.1\r\nContent-Length: {}\r\n\r\n", SUBMIT_CAP + 1);
    let join = format!("POST /join HTTP/1.1\r\nContent-Length: {}\r\n\r\n", JOIN_CAP + 1);
    for request in [submit, join] {
        let (code, largest) = serve(request.as_bytes());
        assert_eq!(code, Some(400), "{request:?}");
        assert!(largest < HEAD_CAP, "allocated {largest} B for {request:?}");
    }
    let head = format!("GET /membership HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(HEAD_CAP));
    let (code, largest) = serve(head.as_bytes());
    assert_eq!(code, Some(431));
    assert!(largest <= 2 * HEAD_CAP, "allocated {largest} B past the head cap");
}
