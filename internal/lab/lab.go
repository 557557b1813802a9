// Package lab reaches the sampler settings that exsample.Options keeps
// unexported, so the ablation experiment can run them through the public
// Search without widening the API.
package lab

import "github.com/exsample/exsample/internal/core"

// Sampler is ExSample's decision policy and within-chunk frame order.
type Sampler struct {
	Policy core.Policy
	Within core.WithinChunk
}

// WithSampler returns a copy of an exsample.Options with s applied. The
// root package sets it at init.
var WithSampler func(opts any, s Sampler) any
