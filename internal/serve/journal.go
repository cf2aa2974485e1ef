package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// journalEntry is one JSONL journal line: a submission (Op "submit",
// Job set) or a state transition (Op "state", ID/State/Error set).
type journalEntry struct {
	Op    string     `json:"op"`
	Time  time.Time  `json:"time"`
	Job   *JobRecord `json:"job,omitempty"`
	ID    int        `json:"id,omitempty"`
	State string     `json:"state,omitempty"`
	Error string     `json:"error,omitempty"`
}

// journalLocked appends one entry; persistence failures are surfaced
// on stderr but never fail the operation (the queue keeps working
// in-memory, merely less durable). Terminal state transitions are
// fsynced — see Config.JournalPath for the durability contract.
func (s *Server) journalLocked(e journalEntry) {
	if s.journal == nil {
		return
	}
	b, err := json.Marshal(e)
	if err == nil {
		_, err = s.journal.Write(append(b, '\n'))
	}
	if err == nil && e.Op == "state" && isTerminal(e.State) {
		err = s.journal.Sync()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: journal write failed: %v\n", err)
	}
}

// isTerminal reports whether a job state is final.
func isTerminal(state string) bool {
	switch state {
	case StateSucceeded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// replayJournal rebuilds the job table from the journal. Jobs whose
// last state was queued or running are re-queued: a job caught mid-run
// left no durable output, and re-running a registry job is safe by
// construction (builders are deterministic in the spec). Terminal jobs
// keep their records (results themselves are not persisted).
//
// A crash mid-append leaves a torn final line (non-terminal appends
// are not fsynced); that is expected damage, so an unparsable *last*
// line is logged, truncated away — the journal is reopened in append
// mode, so the torn bytes must not remain to corrupt the next entry —
// and replay succeeds on the valid prefix. An unparsable line with
// valid entries after it is not a torn append but real corruption, and
// replay fails with the line number. A crash can also cut a line just
// before its newline: the entry is whole, so replay keeps it and
// completes the line, or the next append would land on the same line.
func (s *Server) replayJournal() error {
	f, err := os.Open(s.cfg.JournalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	var validEnd int64 // byte offset past the last intact line
	tornLine := 0
	var tornErr error
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			validEnd += 1
			continue
		}
		if tornLine != 0 {
			// Content after the unparsable line: mid-file corruption,
			// not a torn final append.
			return fmt.Errorf("serve: journal %s line %d: %w (followed by %d more line(s) — not a torn tail)",
				s.cfg.JournalPath, tornLine, tornErr, line-tornLine)
		}
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			tornLine, tornErr = line, err
			continue
		}
		validEnd += int64(len(raw)) + 1
		switch e.Op {
		case "submit":
			if e.Job == nil {
				return fmt.Errorf("serve: journal %s line %d: submit without job", s.cfg.JournalPath, line)
			}
			rec := *e.Job
			rec.State = StateQueued
			s.jobs[rec.ID] = &job{rec: rec, done: make(chan struct{})}
			if rec.ID >= s.nextID {
				s.nextID = rec.ID + 1
			}
		case "state":
			j := s.jobs[e.ID]
			if j == nil {
				continue // state for a job whose submit line was lost
			}
			if isTerminal(j.rec.State) {
				// First terminal transition wins: a duplicate terminal
				// line (or a stale non-terminal one after it) must not
				// re-close j.done or overwrite the outcome.
				continue
			}
			switch e.State {
			case StateQueued, StateRunning:
				// Non-terminal: replay leaves the job queued for re-dispatch.
				j.rec.State = StateQueued
			case StateSucceeded, StateFailed, StateCanceled:
				j.rec.State = e.State
				j.rec.Error = e.Error
				j.rec.FinishedAt = e.Time
				close(j.done)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if tornLine != 0 {
		fmt.Fprintf(os.Stderr, "serve: journal %s line %d torn (%v); truncating to the %d intact bytes\n",
			s.cfg.JournalPath, tornLine, tornErr, validEnd)
		if err := os.Truncate(s.cfg.JournalPath, validEnd); err != nil {
			return fmt.Errorf("serve: repairing torn journal %s: %w", s.cfg.JournalPath, err)
		}
		return nil
	}
	// validEnd counts a newline after every line, so it passes the end
	// of the file exactly when the last line lacks one.
	if st, err := f.Stat(); err != nil || validEnd <= st.Size() {
		return err
	}
	if err := completeLine(s.cfg.JournalPath); err != nil {
		return fmt.Errorf("serve: repairing journal %s: %w", s.cfg.JournalPath, err)
	}
	return nil
}

// completeLine appends the newline a journal's last line lacks, and
// syncs it before any later entry is appended after it.
func completeLine(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
