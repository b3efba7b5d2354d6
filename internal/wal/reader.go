package wal

// This file is the log's exported frame surface: the same CRC-framed
// record encoding the files use, usable as a wire format (the cluster
// replicator ships acked frames to followers verbatim).

// EncodeFrame appends rec to buf as one CRC32C-framed record — the exact
// byte layout Append writes to the log file, so a shipped frame is
// bit-identical to the durable one.
func EncodeFrame(buf []byte, rec Record) []byte {
	return appendFrame(buf, rec)
}

// DecodeFrames decodes a buffer holding zero or more complete frames —
// the replication wire format. Unlike file replay there is no torn-tail
// tolerance: a partial or damaged frame fails the whole buffer, because a
// transport that delivered half a frame delivered nothing trustworthy.
func DecodeFrames(buf []byte) ([]Record, error) {
	var recs []Record
	off := 0
	for off < len(buf) {
		rec, next, err := readFrame(buf, off)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, nil
}

// EncodeRecords frames every record into one buffer (the inverse of
// DecodeFrames).
func EncodeRecords(recs []Record) []byte {
	var n int
	for _, r := range recs {
		n += frameHeaderBytes + recordFixedBytes + len(r.ID) + len(r.Text)
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	return buf
}

// FrameOverhead is the per-record framing cost in bytes beyond ID and
// Text, exported so transports can size batches.
const FrameOverhead = frameHeaderBytes + recordFixedBytes
