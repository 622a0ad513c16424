// Package disk models the SCSI disk used in the paper's evaluation (a
// Seagate ST32550N: 2 GB, 7200 rpm, ~6.5 MB/s media rate) at the level of
// detail the experiments depend on: cylinder geometry, a non-linear seek
// curve, deterministic rotational position, media-rate transfer, and a
// fixed per-command overhead.
//
// The service time of a request is
//
//	Tcmd + Tseek(|cyl - arm|) + Trot_wait + Ttransfer
//
// where Trot_wait is the deterministic rotational delay from the angular
// position of the platter when the seek completes to the first requested
// sector, and Ttransfer moves data at the media rate (one track per
// revolution). Track- and cylinder-switch penalties inside a transfer are
// not modeled; the sustained sequential rate therefore equals the media
// rate, which is what the paper's D parameter measures.
//
// The controller serves one request at a time from two queues, reproducing
// the paper's modification to the Real-Time Mach disk driver: a real-time
// queue and a normal queue, each ordered by C-SCAN, with the real-time
// queue always served first when non-empty. A request already in service is
// never aborted — this is exactly the "other activity" overhead O_other that
// the admission test charges for.
//
// Sector payloads are stored sparsely: written sectors keep their bytes,
// unwritten sectors read as zeros. Media files can therefore be laid out
// (allocating all metadata for real) without storing gigabytes of pixel
// data. The payload a request moves is owned by its submitter, as with the
// paper's raw read interface: a read fills the caller's Request.Data in
// place, and a read with no buffer is timing-only — it costs the mechanism
// exactly what a buffered read would, and moves no bytes. The server's
// stream and rebuild reads are timing-only; the file system supplies its
// own buffers.
//
// The seek curve is deliberately non-linear (a square-root region for short
// seeks, linear beyond), after Ruemmler & Wilkes, so that the linear
// approximation used by the paper's admission test (Appendix C) is a genuine
// approximation of a measured curve, as it was for the authors.
package disk
