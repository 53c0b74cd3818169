// Fixture consumer of the proto table: its dispatch arms are checked
// against the RegisteredBodies fact exported by the proto fixture.
package protouser

import "proto"

// Dispatch routes a decoded body. The Hello arm is live; the Never arm
// can never fire because no row of the table builds a *Never.
func Dispatch(b proto.Body) {
	switch m := b.(type) {
	case *proto.Hello:
		_ = m
	case *proto.Never: // want `dispatch arm for proto\.Never, which no row of the proto table builds`
		_ = m
	}
}
