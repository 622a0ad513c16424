package cras

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/health"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/workload"
)

// ---- simulation engine ----

// Engine is the deterministic discrete-event simulation engine every
// component runs on; Time is a point in virtual time.
type (
	Engine = sim.Engine
	Time   = sim.Time
	Proc   = sim.Proc
)

// NewEngine returns an engine at virtual time zero with the given seed.
var NewEngine = sim.NewEngine

// ---- Real-Time Mach scheduling model ----

// Kernel is a simulated machine's CPU scheduler and kernel-object space;
// Thread is a schedulable thread; Port is a Mach-style message queue.
type (
	Kernel         = rtm.Kernel
	Thread         = rtm.Thread
	Port           = rtm.Port
	Mutex          = rtm.Mutex
	PeriodicConfig = rtm.PeriodicConfig
)

// NewKernel creates a kernel on an engine.
var NewKernel = rtm.NewKernel

// Priority bands, mirroring the conventional interrupt/real-time/
// timesharing split.
const (
	PrioIdle      = rtm.PrioIdle
	PrioTS        = rtm.PrioTS
	PrioRTLow     = rtm.PrioRTLow
	PrioRT        = rtm.PrioRT
	PrioInterrupt = rtm.PrioInterrupt
)

// ---- disk model ----

// Disk is the ST32550N-class disk model with its dual real-time/normal
// C-SCAN controller.
type (
	Disk         = disk.Disk
	DiskGeometry = disk.Geometry
	DiskParams   = disk.Params
	DiskRequest  = disk.Request
	// Volume stripes a logical LBA space over several member disks
	// (RAID-0); StripeFrag is one member's share of a logical range.
	Volume     = disk.Volume
	StripeFrag = disk.Frag
)

var (
	// NewDisk creates a disk on an engine.
	NewDisk = disk.New
	// ST32550N returns geometry and timing calibrated to the paper's disk.
	ST32550N = disk.ST32550N
	// MediaRate returns a disk's sustained transfer rate in bytes/second.
	MediaRate = disk.MediaRate
	// LoadDiskImage reconstructs a disk from an image written by SaveImage.
	LoadDiskImage = disk.LoadImage
	// NewVolume stripes member disks into one logical device; SingleVolume
	// wraps one disk as the identity volume. NewParityVolume adds a
	// rotating parity unit per stripe row (RAID-5 style, N>=3), surviving
	// the death of any one member.
	NewVolume       = disk.NewVolume
	SingleVolume    = disk.SingleVolume
	NewParityVolume = disk.NewParityVolume
)

// DiskStats is one disk's (or one volume member's) activity counters, as
// returned by Disk.Stats and Volume.MemberStats.
type DiskStats = disk.Stats

// ---- Unix file system ----

// FileSystem is the FFS-like file system whose on-disk layout CRAS shares;
// UnixServer is the single-threaded server that applications (and CRAS's
// open path) access it through.
type (
	FileSystem = ufs.FileSystem
	File       = ufs.File
	FSOptions  = ufs.Options
	UnixServer = ufs.Server
	UnixClient = ufs.Client
)

var (
	// FormatFS writes a fresh file system onto a disk (offline mkfs).
	FormatFS = ufs.Format
	// MountFS mounts a formatted disk.
	MountFS = ufs.Mount
	// NewUnixServer starts the Unix server thread.
	NewUnixServer = ufs.NewServer
	// NewUnixClient binds a calling thread to a Unix server.
	NewUnixClient = ufs.NewClient
)

// ---- media streams ----

// StreamInfo is a stream's chunk table; profiles generate CBR and VBR
// streams matching the paper's workloads.
type (
	StreamInfo = media.StreamInfo
	Chunk      = media.Chunk
	CBRProfile = media.CBRProfile
	VBRProfile = media.VBRProfile
	// Container is a QuickTime-style movie: one file, several tracks.
	Container = media.Container
	Track     = media.Track
)

var (
	// MPEG1 is the paper's 1.5 Mb/s benchmark profile; MPEG2 its 6 Mb/s one.
	MPEG1 = media.MPEG1
	MPEG2 = media.MPEG2
	// StoreMovie lays a movie and its control track out on a file system.
	StoreMovie = media.Store
	// LoadMovie reads a chunk table back through the Unix server.
	LoadMovie = media.Load
	// EncodeControl and DecodeControl serialize chunk tables in the
	// control-file format, for applications that write their own media.
	EncodeControl = media.EncodeControl
	DecodeControl = media.DecodeControl
	// StoreContainer and LoadContainer handle QuickTime-style multi-track
	// movie files.
	StoreContainer = media.StoreContainer
	LoadContainer  = media.LoadContainer
)

// ---- the CRAS server ----

// Server is the constant rate access server — the paper's contribution.
// Handle is an application's session (crs_open..crs_get).
type (
	Server          = core.Server
	Handle          = core.Handle
	Config          = core.Config
	OpenOptions     = core.OpenOptions
	AdmissionParams = core.AdmissionParams
	StreamParams    = core.StreamParams
	AdmissionError  = core.AdmissionError
	BufferedChunk   = core.BufferedChunk
	TDBuffer        = core.TDBuffer
	LogicalClock    = core.LogicalClock
	ExtentMap       = core.ExtentMap
	ServerStats     = core.Stats
	AccuracyRecord  = core.AccuracyRecord
	// VolumeShape describes a volume to the admission test (member count,
	// parity, dead members); MemberHealth and MemberHealthEvent expose the
	// per-member ladder of a parity volume.
	VolumeShape       = core.VolumeShape
	MemberHealth      = core.MemberHealth
	MemberHealthEvent = core.MemberHealthEvent
	// HealthCause is why a stream, member or node moved on its health
	// ladder (the Cause of every health event); HealthReason prints a
	// cause with its count the way trace lines do.
	HealthCause  = health.Cause
	HealthReason = health.Reason
)

// Member ladder positions (parity volumes).
const (
	MemberHealthy    = core.MemberHealthy
	MemberSuspect    = core.MemberSuspect
	MemberDead       = core.MemberDead
	MemberRebuilding = core.MemberRebuilding
)

var (
	// NewServer starts CRAS on a kernel; NewVolumeServer starts it on a
	// striped multi-disk volume.
	NewServer       = core.NewServer
	NewVolumeServer = core.NewVolumeServer
	// MeasureAdmissionParams calibrates the admission test from a disk.
	MeasureAdmissionParams = core.MeasureAdmissionParams
	// StripedParams converts a stream's admission parameters to their
	// per-member form for a striped volume (AdmissionParams.AdmitVolume);
	// VolumeParams is its shape-aware generalization covering parity.
	StripedParams = core.StripedParams
	VolumeParams  = core.VolumeParams
	// NewTDBuffer creates a standalone time-driven shared memory buffer.
	NewTDBuffer = core.NewTDBuffer
	// NewLogicalClock returns a stopped logical clock at zero.
	NewLogicalClock = core.NewLogicalClock
	// BuildExtentMap converts a UFS block map into capped read extents.
	BuildExtentMap = core.BuildExtentMap
)

// ---- lab assembly and workloads ----

// Lab assembles a complete machine (disk, file system, Unix server, CRAS)
// and is the quickest way to get something running; see examples/.
type (
	Lab          = lab.Machine
	LabSetup     = lab.Setup
	LabMovie     = lab.Movie
	PlayerStats  = workload.PlayerStats
	PlayerConfig = workload.PlayerConfig
)

var (
	// BuildLab boots a machine and calls ready from engine context.
	BuildLab = lab.Build
	// Players and background actors from the paper's evaluation.
	CRASPlayer       = workload.CRASPlayer
	UFSPlayer        = workload.UFSPlayer
	BackgroundReader = workload.BackgroundReader
	RawScanner       = workload.RawScanner
	CPUHog           = workload.CPUHog
)

// ---- sharded cluster ----

// Cluster is the front door over N complete CRAS nodes: popularity-aware
// placement and consistent-hash routing with cluster-wide admission, a
// Healthy→Suspect→Dead node ladder, stamp-point failover, and zero-loss
// drain migration. ClusterSession is a viewer's cluster-level session,
// surviving node death and drain behind a stable handle.
type (
	Cluster         = cluster.Cluster
	ClusterConfig   = cluster.Config
	ClusterSession  = cluster.Session
	ClusterStats    = cluster.Stats
	NodeHealth      = cluster.NodeHealth
	NodeHealthEvent = cluster.NodeHealthEvent
	FailoverError   = cluster.FailoverError
)

// Node ladder positions.
const (
	NodeHealthy = cluster.NodeHealthy
	NodeSuspect = cluster.NodeSuspect
	NodeDead    = cluster.NodeDead
)

var (
	// NewCluster boots N nodes on one shared engine and calls ready from
	// engine context once routing and health monitoring are armed.
	NewCluster = cluster.New
	// ErrFailover is the sentinel every *FailoverError unwraps to.
	ErrFailover = cluster.ErrFailover
)

// ---- NPS network engine ----

// Network is a shared link with rate-reserved channels (the paper's NPS,
// used by QtPlay to ship streams between machines in Figure 11).
type (
	Network       = nps.Network
	NetworkConfig = nps.Config
	NetChannel    = nps.Channel
	NetPacket     = nps.Packet
)

// NewNetwork creates a link (defaults model 10 Mb/s Ethernet).
var NewNetwork = nps.New

// ---- measurement ----

// Series and Summary are the measurement primitives used by the harness.
type (
	Series  = metrics.Series
	Summary = metrics.Summary
)

// Summarize computes a distribution summary of sample values.
var Summarize = metrics.Summarize
