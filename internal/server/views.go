package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"videodb/internal/core"
	"videodb/internal/object"
)

// Materialized-view endpoints:
//
//	POST   /v1/views          {"name": "murders", "goal": "?- reach(X, Y)"}
//	GET    /v1/views          — list registered views
//	GET    /v1/views/{name}   — read (maintains the view first)
//	DELETE /v1/views/{name}
//
// Creating and dropping views are statements (serialized with scripts
// and rule definition); reads take the shared lock like queries, and the
// per-view refresh serialization happens inside core.

type viewRequest struct {
	Name string `json:"name"`
	Goal string `json:"goal"`
}

// ViewJSON is the wire form of one view read.
type ViewJSON struct {
	Name           string           `json:"name"`
	Columns        []string         `json:"columns"`
	Rows           [][]object.Value `json:"rows"`
	Mode           string           `json:"mode"`
	AppliedInserts int              `json:"appliedInserts"`
	AppliedDeletes int              `json:"appliedDeletes"`
	Stats          statsJSON        `json:"stats"`
}

func viewJSON(vr *core.ViewResult) ViewJSON {
	out := ViewJSON{
		Name:           vr.Name,
		Columns:        vr.Columns,
		Rows:           vr.Rows,
		Mode:           string(vr.Mode),
		AppliedInserts: vr.AppliedInserts,
		AppliedDeletes: vr.AppliedDeletes,
		Stats:          newStatsJSON(vr.Stats),
	}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]object.Value{}
	}
	return out
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		infos := s.db.Views()
		s.mu.RUnlock()
		if infos == nil {
			infos = []core.ViewInfo{} // clients must always see "views": []
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"views": infos})
	case http.MethodPost:
		var req viewRequest
		if !decode(w, r, &req) {
			return
		}
		if strings.TrimSpace(req.Name) == "" || strings.TrimSpace(req.Goal) == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing view name or goal"))
			return
		}
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		began := time.Now()
		s.mu.Lock()
		vr, err := s.db.MaterializeContext(ctx, req.Name, req.Goal)
		s.mu.Unlock()
		if err != nil {
			s.metrics.viewErrors.Add(1)
			status := statusFor(r, err)
			if strings.Contains(err.Error(), "already exists") {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		s.metrics.recordView(vr.Mode)
		s.logSlow("view", req.Name+" = "+req.Goal, time.Since(began), &vr.Stats, nil)
		writeJSON(w, http.StatusOK, viewJSON(vr))
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/views/")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing view name"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		began := time.Now()
		s.mu.RLock()
		vr, err := s.db.ViewContext(ctx, name)
		s.mu.RUnlock()
		elapsed := time.Since(began)
		if err != nil {
			if core.IsViewNotFound(err) {
				writeError(w, http.StatusNotFound, err)
				return
			}
			s.metrics.viewErrors.Add(1)
			s.logSlow("view", name, elapsed, nil, err)
			writeError(w, statusFor(r, err), err)
			return
		}
		s.metrics.recordView(vr.Mode)
		s.logSlow("view", name, elapsed, &vr.Stats, nil)
		writeJSON(w, http.StatusOK, viewJSON(vr))
	case http.MethodDelete:
		s.mu.Lock()
		ok := s.db.DropView(name)
		s.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no view %q", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	default:
		methodNotAllowed(w, "GET, DELETE")
	}
}
