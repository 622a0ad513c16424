// Package ufs implements a small BSD-FFS-like file system on the simulated
// disk, plus the single-threaded "Unix server" (the paper's Lites server)
// that serves it to applications.
//
// CRAS's central layout decision is that it does NOT define its own format:
// it shares the Unix file system's on-disk layout, tuned (via tunefs, here
// the MaxContig/RotDelay format options) to allocate file blocks as
// contiguously as possible. This package therefore provides both halves of
// that bargain:
//
//   - the format: a superblock, cylinder groups with block/inode bitmaps,
//     inodes with direct/indirect/double-indirect pointers, directories,
//     and a contiguity-preferring block allocator;
//   - the non-real-time access path: a buffer cache with sequential
//     read-ahead behind a single server thread, which is the baseline CRAS
//     is compared against in Figures 6 and 7 (and the source of its
//     priority inversions).
//
// CRAS itself bypasses this read path: it asks the server for a file's
// block map (a non-real-time operation, done at open time), coalesces it
// into extents, and reads raw sectors on the disk's real-time queue.
//
// Differences from real FFS, chosen to keep the package small without
// changing the behaviour the paper depends on: no fragments (a file's tail
// occupies a whole 8 KB block), no triple-indirect blocks, fixed 64-byte
// directory entries, and cylinder groups measured in blocks rather than
// exact cylinder boundaries.
//
// Buffer ownership: the buffer cache owns its 8 KB frames and recycles
// them, so a slice from Cache.Get is valid only until the next call into
// the cache or the next blocking operation; Client.Read returns the
// client's reply buffer, valid until that client's next call.
//
// Concurrency model: a FileSystem instance must only be used from one
// simulation process at a time. The Unix server enforces this by
// construction — it is one thread, and that single-threadedness is exactly
// what the paper blames for the Unix file system's priority inversion.
package ufs
