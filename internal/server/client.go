package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"videodb/internal/object"
)

// Client is a Go client for the HTTP API.
type Client struct {
	base string
	http *http.Client
}

// NewClient creates a client for the server at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for the default.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: baseURL, http: httpClient}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// Query runs a VideoQL query.
func (c *Client) Query(query string) (*ResultJSON, error) {
	var out ResultJSON
	if err := c.post("/v1/query", queryRequest{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain returns the evaluation plan of a query.
func (c *Client) Explain(query string) (string, error) {
	var out struct {
		Plan string `json:"plan"`
	}
	if err := c.post("/v1/explain", queryRequest{Query: query}, &out); err != nil {
		return "", err
	}
	return out.Plan, nil
}

// LoadScript executes a VideoQL script server-side and returns its query
// results.
func (c *Client) LoadScript(script string) ([]ResultJSON, error) {
	var out struct {
		Results []ResultJSON `json:"results"`
	}
	if err := c.post("/v1/script", scriptRequest{Script: script}, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// DefineRule adds a rule to the server's program.
func (c *Client) DefineRule(rule string) error {
	var out struct {
		OK bool `json:"ok"`
	}
	return c.post("/v1/rules", ruleRequest{Rule: rule}, &out)
}

// Rules lists the server's current rules.
func (c *Client) Rules() ([]string, error) {
	var out struct {
		Rules []string `json:"rules"`
	}
	if err := c.get("/v1/rules", &out); err != nil {
		return nil, err
	}
	return out.Rules, nil
}

// ObjectInfo is one entry of Objects.
type ObjectInfo struct {
	OID  string `json:"oid"`
	Kind string `json:"kind"`
}

// Objects lists the stored objects.
func (c *Client) Objects() ([]ObjectInfo, error) {
	var out struct {
		Objects []ObjectInfo `json:"objects"`
	}
	if err := c.get("/v1/objects", &out); err != nil {
		return nil, err
	}
	return out.Objects, nil
}

// Object fetches one object.
func (c *Client) Object(oid object.OID) (*object.Object, error) {
	var out object.Object
	if err := c.get("/v1/objects/"+url.PathEscape(string(oid)), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns the server's statistics: store contents plus cumulative
// engine totals, plan cache, backend, subscription and admission state,
// and uptime.
func (c *Client) Stats() (*StatsResponse, error) {
	var out StatsResponse
	if err := c.get("/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) post(path string, body, dst interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return c.finish(resp, dst)
}

func (c *Client) get(path string, dst interface{}) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	return c.finish(resp, dst)
}

func (c *Client) finish(resp *http.Response, dst interface{}) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr errorJSON
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(body, &apiErr) != nil || apiErr.Error == "" {
			apiErr.Error = string(body)
		}
		return &APIError{Status: resp.StatusCode, Message: apiErr.Error}
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
