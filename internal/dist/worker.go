package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/obs"
)

// ErrBadResume wraps a failure to decode or restore a partition's resume
// state. The coordinator treats it as "the state is unusable, re-run from
// scratch" rather than "the worker is unhealthy".
var ErrBadResume = errors.New("dist: resume state rejected")

// maxBodyBytes caps POST /v1/partitions request bodies; assignments are
// small except for the optional resume blob.
const maxBodyBytes = 64 << 20

// Handler serves POST /v1/partitions: it decodes an Assignment, runs the
// partition against the locally registered graph, and streams Frames back —
// a snapshot at every checkpoint target, then a final frame carrying the
// terminal partition state (or an error frame).
//
// The response is written with status 200 before the run starts, so run-time
// failures surface as error frames, not HTTP status codes. Status codes
// cover what can be checked up front: 400 for a malformed assignment, 404
// for an unknown graph, 409 for a graph whose fingerprint disagrees with the
// assignment's.
type Handler struct {
	// Lookup, which must be set, resolves a graph name to a crawl client and
	// the local fingerprint. The client must be safe for concurrent use by the
	// partition's walkers (the registry's graph-backed clients are).
	Lookup func(name string) (access.Client, GraphMeta, bool)

	// Served counts served partitions by terminal state ("ok", "error",
	// "rejected"); nil disables counting.
	Served *obs.CounterVec
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		h.count("rejected")
		http.Error(w, "request body unreadable or too large", http.StatusBadRequest)
		return
	}
	asn, err := DecodeAssignment(body)
	if err != nil {
		h.count("rejected")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	client, meta, ok := h.Lookup(asn.Graph)
	if !ok {
		h.count("rejected")
		http.Error(w, fmt.Sprintf("unknown graph %q", asn.Graph), http.StatusNotFound)
		return
	}
	if meta != asn.Meta {
		h.count("rejected")
		http.Error(w, fmt.Sprintf("graph %q fingerprint mismatch: local %+v, assignment %+v",
			asn.Graph, meta, asn.Meta), http.StatusConflict)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(f *Frame) error {
		if err := WriteFrame(w, f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := RunPartition(r.Context(), client, asn, emit); err != nil {
		h.count("error")
		// Best effort: the coordinator may already be gone.
		_ = emit(&Frame{Kind: FrameError, Msg: err.Error()})
		return
	}
	h.count("ok")
}

func (h *Handler) count(state string) { h.Served.With(state).Inc() }

// WriteFrame writes one length-prefixed frame to the stream.
func WriteFrame(w io.Writer, f *Frame) error {
	blob := f.Encode()
	hdr := binary.AppendUvarint(make([]byte, 0, 10), uint64(len(blob)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// ReadFrame reads one length-prefixed frame; io.EOF cleanly at a frame
// boundary means the stream ended.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: frame length: %w", err)
	}
	if n > maxBlobBytes+maxMsgBytes {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds cap", n)
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(r, blob); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return DecodeFrame(blob)
}

// RunPartition executes an assignment's walker range against client and
// streams it as frames: a snapshot frame at every intermediate checkpoint
// target, a final frame when the budget completes. It is runPartition seen
// from the wire: the assignment's resume bytes are decoded here, where they
// enter the process, and every state is encoded here, where it leaves.
func RunPartition(ctx context.Context, client access.Client, asn *Assignment, emit func(*Frame) error) error {
	var resume *core.EnsembleState
	if len(asn.Resume) > 0 {
		st, err := core.DecodeEnsembleState(asn.Resume)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadResume, err)
		}
		resume = st
	}
	return runPartition(ctx, client, asn, resume, func(st *core.EnsembleState) error {
		kind := FrameSnapshot
		if st.WindowsDone == asn.Budget {
			kind = FrameFinal
		}
		return emit(&Frame{Kind: kind, Target: st.WindowsDone, State: st.Encode()})
	})
}

// runPartition is the one place a job's walkers run, for a remote worker and
// an in-process partition alike: it builds the estimator for walkers
// [Lo, Hi), restores resume when given, and calls emit with the state the
// estimator hands out at every checkpoint target, in increasing target order
// — on this goroutine, while the walkers walk on, so a slow emit (a slow
// wire) holds them back only once they are the engine's fixed lead ahead.
// The last, at the full budget, is the partition's final state — emitted
// even when a resume at the full budget leaves no target to run. An emit
// error cancels the run.
func runPartition(ctx context.Context, client access.Client, asn *Assignment, resume *core.EnsembleState, emit func(*core.EnsembleState) error) error {
	if err := asn.Validate(); err != nil {
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var emitErr error
	send := func(st *core.EnsembleState) {
		if emitErr == nil {
			if emitErr = emit(st); emitErr != nil {
				cancel()
			}
		}
	}
	est, err := core.NewPartitionMultiEstimator(client, asn.config(), asn.Lo, asn.Hi)
	if err != nil {
		return err
	}
	if resume != nil {
		if err := est.Restore(resume); err != nil {
			return fmt.Errorf("%w: %w", ErrBadResume, err)
		}
	}
	last := 0
	_, runErr := est.RunCheckpointsCtx(cctx, asn.Budget, asn.Every, func(st *core.EnsembleState) {
		last = st.WindowsDone
		send(st)
	})
	if runErr == nil && last != asn.Budget {
		send(est.Snapshot()) // resumed at the full budget: no target was left to run
	}
	if emitErr != nil {
		return fmt.Errorf("dist: streaming partition [%d,%d): %w", asn.Lo, asn.Hi, emitErr)
	}
	return runErr
}
