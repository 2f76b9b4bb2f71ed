package client

import (
	"encoding/json"
	"fmt"
	"reflect"

	"allnn/ann"
	"allnn/internal/wire"
)

// QueryReport is the server-produced observability record for one
// remote join, requested with JoinOptions.WantReport. It carries the
// same engine/pool/cache/timings breakdown a local ann.QueryConfig
// OnReport callback would receive, plus, under "service" in its JSON,
// the costs only the server can measure (TraceID, AdmissionWait,
// EngineTime, FlushTime, BytesIn, BytesOut). It is the JSON the server
// sends, decoded as is.
type QueryReport struct {
	ann.QueryReport
	wire.ServiceReport `json:"service"`
}

// decodeReport decodes and validates a StreamEnd's report block.
func decodeReport(b []byte) (*QueryReport, error) {
	rep := new(QueryReport)
	if err := decodeRecord("report", b, rep); err != nil {
		return nil, err
	}
	if err := wire.CheckTraceID(rep.TraceID); err != nil {
		return nil, err
	}
	return rep, nil
}

// decodeRecord unmarshals a record the server encoded as JSON into v, a
// pointer to its typed struct — never through interface{}, so 64-bit
// counters round-trip exactly. Every signed field of a report or stats
// record is a size, a count or a duration, so a negative one is hostile.
func decodeRecord(what string, b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("client: malformed %s: %w", what, err)
	}
	return nonNegative(what, reflect.ValueOf(v).Elem())
}

// nonNegative rejects a negative signed integer anywhere in v.
func nonNegative(path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := nonNegative(path+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Int, reflect.Int64:
		if v.Int() < 0 {
			return fmt.Errorf("client: negative %s %d", path, v.Int())
		}
	}
	return nil
}
