package clientproto

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"corona/internal/im"
)

// TransportLine is the line framing's transport name in the session
// table.
const TransportLine = "line"

// lineFraming is the prototype's IM line protocol as a framing of the
// session model: one command per line in, one reply or message per line
// out, no hello, no request IDs and no ServerInfo.
//
//	LOGIN <handle>      -> OK logged in as <handle>
//	SUBSCRIBE <url>     -> OK subscribed <url>
//	UNSUBSCRIBE <url>   -> OK unsubscribed <url>
//	QUIT                -> OK bye, then the server closes the connection
//
// A failed request is answered ERR <reason>, and so is a line that is
// none of the above. A notification is one line,
// MSG corona <quoted body>, whose body (Go-quoted, so multi-line diffs
// stay on one line) is "UPDATE <url> v<version>\n" followed by the diff;
// a line longer than MaxFrame is dropped and counted, like an oversize
// binary frame. Request lines are bounded by MaxFrame too.
var lineFraming = framing[string]{
	transport: TransportLine,
	reader:    lineReader,
	reply:     replyLine,
	write: func(bw *bufio.Writer, q Queued[string]) error {
		_, err := bw.WriteString(q.Msg)
		return err
	},
	encode: encodeLine,
}

// errLineUsage answers a line that is no command.
const errLineUsage = badRequest("expected LOGIN <handle> | SUBSCRIBE <url> | UNSUBSCRIBE <url> | QUIT")

func lineReader(r io.Reader) func() (Frame, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), MaxFrame)
	return func() (Frame, error) {
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			switch cmd := strings.ToUpper(fields[0]); {
			case cmd == "QUIT":
				return &quit{}, nil
			case len(fields) != 2: // a usage error, below
			case cmd == "LOGIN":
				return &Login{Handle: fields[1]}, nil
			case cmd == "SUBSCRIBE":
				return &Subscribe{URL: fields[1]}, nil
			case cmd == "UNSUBSCRIBE":
				return &Unsubscribe{URL: fields[1]}, nil
			}
			return nil, errLineUsage
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
}

func replyLine(req Frame, _ []byte, err error) string {
	if err != nil {
		return "ERR " + err.Error() + "\n"
	}
	switch r := req.(type) {
	case *Login:
		return "OK logged in as " + r.Handle + "\n"
	case *Subscribe:
		return "OK subscribed " + r.URL + "\n"
	case *Unsubscribe:
		return "OK unsubscribed " + r.URL + "\n"
	}
	return "OK bye\n"
}

// sharedKeyLine keys the line framing's slot in a batch's im.Shared
// cell.
var sharedKeyLine = new(byte)

// encodeLine is the line edge's notify encoder: the first recipient of a
// batch renders the MSG line into the batch's Shared cell and every
// later one reuses the string.
func encodeLine(n im.Notification) (string, bool) {
	msg, _ := n.Shared.Load(sharedKeyLine).(string)
	if msg == "" {
		msg = "MSG corona " + strconv.Quote(n.LegacyBody()) + "\n"
		n.Shared.Store(sharedKeyLine, msg)
	}
	return msg, len(msg) <= MaxFrame
}
