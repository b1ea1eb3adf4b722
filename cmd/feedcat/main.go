// feedcat renders a federation feed — the binary wire format of
// internal/federate (DESIGN.md §6) — as one JSON object per frame, so a
// captured or live feed can be grepped, diffed and piped to jq the way the
// JSONL wire it replaced could.
//
//	feedcat < feed.bin                         # a captured stream
//	feedcat site:9100 | grep scanner-detected  # a live one
//
// With an address it dials the publisher and opens the conversation itself
// (publishers speak only after the reader's hello) with a zero cursor, so
// the feed starts from a full snapshot; it carries no auth token, so a
// publisher started with -feed-auth hangs up on it. A frame that does not
// decode ends the run with a non-zero exit and the byte offset it starts
// at.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"

	"servdisc/internal/federate"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "feedcat:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	if len(args) > 1 {
		return fmt.Errorf("usage: feedcat [publisher-address] (reads standard input without one)")
	}
	if len(args) == 1 {
		conn, err := net.Dial("tcp", args[0])
		if err != nil {
			return err
		}
		defer conn.Close()
		hello := federate.Frame{V: federate.WireVersion, Type: federate.FrameResume, Resume: &federate.ResumeCursor{}}
		if err := federate.NewEncoder(conn).Encode(&hello); err != nil {
			return fmt.Errorf("send hello: %w", err)
		}
		in = conn
	}
	dec, enc := federate.NewDecoder(in), json.NewEncoder(out)
	for {
		f, err := dec.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("frame at byte offset %d: %w", dec.Offset(), err)
		}
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
}
