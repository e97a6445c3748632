package main

import (
	"bytes"
	"testing"
)

// TestRun pins the demo's two lines: the server's active data connection
// dies at the edge without the hole punch and gets through with it.
func TestRun(t *testing.T) {
	const want = "hole punch false: active data connection FAILED (dropped at edge router)\n" +
		"hole punch true : active data connection succeeded\n"
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
