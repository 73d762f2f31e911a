package main

import (
	"testing"

	"planarflow/internal/cmdtest"
)

func TestSelfcheckSmoke(t *testing.T) {
	out := cmdtest.RunMain(t, "-selfcheck", "-budget-mb", "64")
	cmdtest.ExpectMarkers(t, out,
		"flowd selfcheck: healthz ok",
		"registered grid n=36",
		"dist=",
		"maxflow=",
		"store: graphs=1",
		"flowd selfcheck: ok",
	)
}
