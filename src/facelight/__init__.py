"""facelight: screen-to-face illumination simulation and content inference.

The package models how on-screen content lights up a human face, renders
synthetic face images, analyzes blue/red reflection asymmetries, and runs a
two-tier classifier with temporal label correction to recover which
application was on the screen.
"""
