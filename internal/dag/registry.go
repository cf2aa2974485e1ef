package dag

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// The pipeline registry mirrors cluster's job registry: named builders
// turn an opaque spec into a Pipeline, so a job service can admit and
// run pipelines from a wire reference without shipping closures or
// input data. Builders must be deterministic in the spec, and every
// stage's job must be registered with cluster.RegisterJob.
var (
	regMu    sync.RWMutex
	builders = make(map[string]func(spec []byte) (*Pipeline, error))
)

// RegisterPipeline installs a pipeline builder under name. Duplicate
// registration panics, matching cluster.RegisterJob.
func RegisterPipeline(name string, build func(spec []byte) (*Pipeline, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("dag: pipeline %q registered twice", name))
	}
	builders[name] = build
}

// BuildPipeline materializes a registered pipeline from its spec.
func BuildPipeline(name string, spec []byte) (*Pipeline, error) {
	regMu.RLock()
	build := builders[name]
	regMu.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("dag: no pipeline registered as %q", name)
	}
	return build(spec)
}

// ValidatePipeline checks that a reference builds a well-formed
// pipeline without running it — admission-time validation for job
// services. Every stage's job must build, and a stage that reads the
// pipeline's input (From == "") must build at least one split.
func ValidatePipeline(name string, spec []byte) error {
	p, err := BuildPipeline(name, spec)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for _, s := range p.Stages {
		if s.From == "" {
			err = cluster.ValidateJob(s.Job)
		} else {
			_, _, err = cluster.BuildJob(s.Job)
		}
		if err != nil {
			return fmt.Errorf("dag: pipeline %q stage %q: %w", name, s.Name, err)
		}
	}
	return nil
}
