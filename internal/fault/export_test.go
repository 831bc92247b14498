package fault

import "encoding/json"

// Marshal renders the plan as indented JSON.
func (p *Plan) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
