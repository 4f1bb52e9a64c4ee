package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/repo"
)

func methodNames(t reflect.Type) []string {
	names := make([]string, t.NumMethod())
	for i := range names {
		names[i] = t.Method(i).Name
	}
	sort.Strings(names)
	return names
}

// The wrapper must expose exactly the client's methods: one more (say
// SnapshotVersion) or one fewer (SyncIncremental) would send the relying
// party down another path than the daemon's.
func TestTracedFetcherMethodSet(t *testing.T) {
	want := methodNames(reflect.TypeOf(&repo.Client{}))
	got := methodNames(reflect.TypeOf(&tracedFetcher{}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tracedFetcher methods %v, repo.Client methods %v", got, want)
	}
}
