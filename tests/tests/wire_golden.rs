//! Golden wire frames: the exact bytes of one sample of every request
//! kind, every response shape, both handshake frames and the `FsError`
//! catch-all tag.
//!
//! `PROTOCOL_VERSION` promises that a peer built from another tree of the
//! same version decodes what this one sends, so a codec change that moves
//! a single byte must fail here rather than at a mixed-version deployment.
//! The hex strings were captured from the hand-written codec and must not
//! be edited to follow a codec change: bump the version instead.

use simurgh_fsapi::wire::{self, Hello, HelloOk, Request, RequestKind, Response, PROTOCOL_VERSION};
use simurgh_fsapi::{
    Credentials, DirEntry, Fd, FileMode, FileType, FsError, FsStats, OpenFlags, SeekFrom, Stat,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// One request per `FileSystem` method, in trait order, with field values
/// that exercise every field codec (all six open-flag bits across the
/// samples, a negative seek, empty and non-empty byte strings, non-ASCII
/// UTF-8).
fn requests() -> Vec<Request> {
    let mode = FileMode::file(0o640);
    let all_flags = OpenFlags {
        read: true,
        write: true,
        create: true,
        excl: true,
        truncate: true,
        append: true,
    };
    vec![
        Request::Name,
        Request::Open { path: "/a/b".into(), flags: all_flags, mode },
        Request::Create { path: "/a/c".into(), mode: FileMode::symlink() },
        Request::Close { fd: Fd(7) },
        Request::Read { fd: Fd(7), len: 4096 },
        Request::Write { fd: Fd(7), data: vec![1, 2, 3] },
        Request::Pread { fd: Fd(0x0102_0304), len: 512, off: 9 },
        Request::Pwrite { fd: Fd(7), data: vec![9; 17], off: 1 << 40 },
        Request::Lseek { fd: Fd(7), pos: SeekFrom::End(-3) },
        Request::Fsync { fd: Fd(8) },
        Request::Fstat { fd: Fd(9) },
        Request::Ftruncate { fd: Fd(7), len: 100 },
        Request::Fallocate { fd: Fd(7), off: 4096, len: 8192 },
        Request::Unlink { path: "/a/b".into() },
        Request::Mkdir { path: "/d".into(), mode: FileMode::dir(0o755) },
        Request::Rmdir { path: "/d".into() },
        Request::Rename { old: "/a".into(), new: "/b".into() },
        Request::Stat { path: "/a".into() },
        Request::Readdir { path: "/".into() },
        Request::Symlink { target: "/a".into(), linkpath: "/l".into() },
        Request::Readlink { path: "/l".into() },
        Request::Link { existing: "/a".into(), new: "/h".into() },
        Request::Chmod { path: "/a".into(), perm: 0o600 },
        Request::SetTimes { path: "/a".into(), atime: 1, mtime: u64::MAX },
        Request::Statfs,
        Request::ReadFile { path: "/a".into() },
        Request::ReadToVec { path: "/ü".into() },
        Request::WriteFile { path: "/a".into(), data: Vec::new() },
        Request::SnapshotTree { root: "/".into() },
    ]
}

/// `(method, frame body hex)` for [`requests`], row for row.
const GOLDEN_REQUESTS: [(&str, &str); 29] = [
    ("name", "01"),
    ("open", "02040000002f612f623f00a001"),
    ("create", "03040000002f612f6302ff01"),
    ("close", "0407000000"),
    ("read", "050700000000100000"),
    ("write", "060700000003000000010203"),
    ("pread", "0704030201000200000900000000000000"),
    ("pwrite", "08070000001100000009090909090909090909090909090909090000000000010000"),
    ("lseek", "090700000002fdffffffffffffff"),
    ("fsync", "0a08000000"),
    ("fstat", "0b09000000"),
    ("ftruncate", "0c070000006400000000000000"),
    ("fallocate", "0d0700000000100000000000000020000000000000"),
    ("unlink", "0e040000002f612f62"),
    ("mkdir", "0f020000002f6401ed01"),
    ("rmdir", "10020000002f64"),
    ("rename", "11020000002f61020000002f62"),
    ("stat", "12020000002f61"),
    ("readdir", "13010000002f"),
    ("symlink", "14020000002f61020000002f6c"),
    ("readlink", "15020000002f6c"),
    ("link", "16020000002f61020000002f68"),
    ("chmod", "17020000002f618001"),
    ("set_times", "18020000002f610100000000000000ffffffffffffffff"),
    ("statfs", "19"),
    ("read_file", "1a020000002f61"),
    ("read_to_vec", "1b030000002fc3bc"),
    ("write_file", "1c020000002f6100000000"),
    ("snapshot_tree", "1d010000002f"),
];

/// One response per payload shape, in tag order.
fn responses() -> Vec<Response> {
    vec![
        Response::Unit,
        Response::Fd(Fd(9)),
        Response::Size(1 << 40),
        Response::Data(vec![0, 255, 7]),
        Response::Str("simurgh".into()),
        Response::Stat(Stat {
            ino: 42,
            mode: FileMode::dir(0o755),
            uid: 1,
            gid: 2,
            size: 3,
            nlink: 2,
            atime: 4,
            mtime: 5,
            ctime: 6,
        }),
        Response::Statfs(FsStats { total_bytes: 10, free_bytes: 4, block_size: 4096 }),
        Response::Entries(vec![
            DirEntry { name: "x".into(), ftype: FileType::Symlink, ino: 3 },
            DirEntry { name: "d".into(), ftype: FileType::Directory, ino: 4 },
        ]),
        Response::Tree(vec![("/a".into(), FileType::Regular, 11)]),
        Response::Err(FsError::Corrupt("bad line")),
        Response::Busy { in_flight: 128, limit: 256 },
    ]
}

/// Frame body hex for [`responses`], row for row.
const GOLDEN_RESPONSES: [&str; 11] = [
    "00",
    "0109000000",
    "020000000000010000",
    "030300000000ff07",
    "040700000073696d75726768",
    "052a0000000000000001ed010100000002000000030000000000000002000000040000000000000005000000000000000600000000000000",
    "060a00000000000000040000000000000000100000",
    "070200000001000000780203000000000000000100000064010400000000000000",
    "0801000000020000002f61000b00000000000000",
    "090c08000000626164206c696e65",
    "0a8000000000010000",
];

#[test]
fn request_frames_are_byte_identical() {
    let reqs = requests();
    assert_eq!(reqs.len(), RequestKind::COUNT);
    for ((req, (method, golden)), kind) in reqs.iter().zip(GOLDEN_REQUESTS).zip(RequestKind::ALL) {
        assert_eq!(req.kind(), kind, "samples follow trait order");
        assert_eq!(kind.method_name(), method);
        assert_eq!(hex(&req.encode()), golden, "encoding of {method}");
        assert_eq!(&Request::decode(&unhex(golden)).expect("golden decodes"), req, "{method}");
    }
}

#[test]
fn response_frames_are_byte_identical() {
    for (resp, golden) in responses().iter().zip(GOLDEN_RESPONSES) {
        assert_eq!(hex(&resp.encode()), golden, "encoding of {resp:?}");
        assert_eq!(&Response::decode(&unhex(golden)).expect("golden decodes"), resp);
    }
}

#[test]
fn handshake_frames_are_byte_identical() {
    let hello = Hello { version: PROTOCOL_VERSION, creds: Credentials::user(1000, 100) };
    let golden = "0e000000574d49530100e803000064000000";
    assert_eq!(hex(&wire::frame(&hello.encode())), golden);
    let framed = unhex(golden);
    let (used, body) = wire::split_frame(&framed).unwrap().expect("whole frame");
    assert_eq!(used, framed.len());
    assert_eq!(Hello::decode(body).unwrap(), hello);

    let ok = HelloOk { version: PROTOCOL_VERSION, conn_id: 0x00C0_FFEE };
    let golden = "0a000000574d49530100eeffc000";
    assert_eq!(hex(&wire::frame(&ok.encode())), golden);
    let framed = unhex(golden);
    let (_, body) = wire::split_frame(&framed).unwrap().expect("whole frame");
    assert_eq!(HelloOk::decode(body).unwrap(), ok);
}

#[test]
fn error_catch_all_tag_is_byte_identical() {
    // An `FsError` variant this protocol version does not know travels as
    // tag 0xff + errno + rendering; the receiver maps the errno back to
    // the closest known variant (ENOSPC here), which re-encodes as its
    // own one-byte tag.
    let golden = "ff1c0000000700000045465554555245";
    let e = wire::err_from_bytes(&unhex(golden)).expect("catch-all decodes");
    assert_eq!(e.errno(), 28);
    assert_eq!(hex(&wire::err_bytes(&e)), "06");
    let resp = Response::decode(&unhex(&format!("09{golden}"))).expect("inside a response");
    assert!(matches!(resp, Response::Err(ref e) if e.errno() == 28), "{resp:?}");
}

#[test]
fn seek_origins_are_byte_identical() {
    // The `requests` sample covers `SeekFrom::End`; the other two origins
    // carry their own tag and integer width.
    let golden = [
        (SeekFrom::Start(5), "0907000000000500000000000000"),
        (SeekFrom::Current(-1), "090700000001ffffffffffffffff"),
    ];
    for (pos, hex_body) in golden {
        let req = Request::Lseek { fd: Fd(7), pos };
        assert_eq!(hex(&req.encode()), hex_body, "{pos:?}");
        assert_eq!(Request::decode(&unhex(hex_body)).unwrap(), req);
    }
}
