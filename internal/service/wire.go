package service

import "repro/internal/api"

// The wire DTOs live in internal/api — the single home of the
// versioned contract, shared verbatim with pkg/client so server and
// SDK can never drift (DESIGN.md Sec. 9). The service aliases them so
// the rest of this package (and its tests) keep their natural names.
type (
	DatasetInfo    = api.DatasetInfo
	JobSpec        = api.JobSpec
	JobStatus      = api.JobStatus
	JobState       = api.JobState
	WindowState    = api.WindowState
	WindowStatus   = api.WindowStatus
	ReleaseQuality = api.ReleaseQuality
)

const (
	JobQueued    = api.JobQueued
	JobRunning   = api.JobRunning
	JobDone      = api.JobDone
	JobFailed    = api.JobFailed
	JobCancelled = api.JobCancelled

	WindowPending = api.WindowPending
	WindowRunning = api.WindowRunning
	WindowDone    = api.WindowDone
	WindowAborted = api.WindowAborted
	WindowEmpty   = api.WindowEmpty
)
